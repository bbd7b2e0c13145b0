"""Tests for the KML logger."""

import threading

from repro.runtime.kml_logging import LOG_CAPACITY, KmlLogger, LogLevel


class TestLogger:
    def test_level_filtering(self):
        logger = KmlLogger(level=LogLevel.INFO)
        logger.debug("nope")
        logger.info("yes")
        assert [r[2] for r in logger.records()] == ["yes"]

    def test_level_filter_query(self):
        logger = KmlLogger(level=LogLevel.DEBUG)
        logger.warn("w")
        logger.err("e")
        assert [r[1] for r in logger.records()].count(LogLevel.ERR) == 1

    def test_ring_capacity(self):
        logger = KmlLogger()
        for i in range(LOG_CAPACITY + 2):
            logger.info(str(i))
        kept = [r[2] for r in logger.records()]
        assert kept == [str(i) for i in range(2, LOG_CAPACITY + 2)]

    def test_clear(self):
        logger = KmlLogger()
        logger.info("x")
        logger.clear()
        assert logger.records() == []

    def test_thread_safety_no_loss(self):
        logger = KmlLogger()

        def spam(tid):
            for i in range(1000):
                logger.info(f"{tid}:{i}")

        threads = [threading.Thread(target=spam, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(logger.records()) == 8000

    def test_timestamps_monotone(self):
        logger = KmlLogger()
        logger.info("a")
        logger.info("b")
        records = logger.records()
        assert records[0][0] <= records[1][0]
