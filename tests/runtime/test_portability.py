"""Tests for the 27-function development API and its two profiles."""

import threading

import pytest

from repro.runtime.kml_logging import LogLevel
from repro.runtime.memory import KmlMemoryError
from repro.runtime.portability import (
    DEV_API_FUNCTIONS,
    kernel_environment,
    user_environment,
)


class TestApiSurface:
    def test_exactly_27_functions(self):
        total = sum(len(v) for v in DEV_API_FUNCTIONS.values())
        assert total == 27  # the paper's count

    def test_five_areas(self):
        assert set(DEV_API_FUNCTIONS) == {
            "memory",
            "threading",
            "logging",
            "atomics",
            "files",
        }

    @pytest.mark.parametrize("env_factory", [user_environment, kernel_environment])
    def test_every_declared_function_exists(self, env_factory):
        env = env_factory()
        for name in env.api_functions():
            assert callable(getattr(env, name)), name


class TestMemoryArea:
    def test_malloc_free(self):
        env = user_environment()
        allocation = env.kml_malloc(64)
        assert env.kml_mem_in_use() == 64
        env.kml_free(allocation)
        assert env.kml_mem_in_use() == 0

    def test_calloc(self):
        env = user_environment()
        allocation = env.kml_calloc(8, 4)
        assert allocation.size == 32

    def test_kernel_reservation_enforced(self):
        env = kernel_environment(reservation=128)
        env.kml_malloc(100)
        with pytest.raises(KmlMemoryError):
            env.kml_malloc(100)

    def test_reserve_below_use_rejected(self):
        env = kernel_environment(reservation=1024)
        env.kml_malloc(512)
        with pytest.raises(KmlMemoryError):
            env.kml_mem_reserve(100)

    def test_peak(self):
        env = user_environment()
        a = env.kml_malloc(100)
        env.kml_free(a)
        assert env.kml_mem_peak() == 100


class TestThreadingArea:
    def test_thread_runs_and_joins(self):
        env = user_environment()
        results = []
        thread = env.kml_create_thread(lambda v: results.append(v), 42)
        env.kml_join_thread(thread)
        assert results == [42]

    def test_time_monotonic(self):
        env = user_environment()
        a = env.kml_time_ns()
        b = env.kml_time_ns()
        assert b >= a

    def test_fpu_bracketing(self):
        env = kernel_environment()
        env.kml_fpu_begin()
        assert env.in_fpu_section
        env.kml_fpu_begin()  # nested
        env.kml_fpu_end()
        assert env.in_fpu_section
        env.kml_fpu_end()
        assert not env.in_fpu_section
        assert env.fpu_sections == 1  # one outermost bracket

    def test_fpu_end_without_begin(self):
        with pytest.raises(RuntimeError):
            user_environment().kml_fpu_end()


class TestLoggingArea:
    @pytest.mark.parametrize("env_factory", [user_environment, kernel_environment])
    def test_debug_records_kept(self, env_factory):
        env = env_factory()
        env.kml_log_debug("d")
        env.kml_log_info("i")
        env.kml_log_warn("w")
        env.kml_log_err("e")
        assert [(r[1], r[2]) for r in env.logger.records()] == [
            (LogLevel.DEBUG, "d"),
            (LogLevel.INFO, "i"),
            (LogLevel.WARN, "w"),
            (LogLevel.ERR, "e"),
        ]

    def test_levels_filtered(self):
        env = user_environment()
        env.logger.level = LogLevel.WARN
        env.kml_log_debug("hidden")
        env.kml_log_err("visible")
        records = env.logger.records()
        assert len(records) == 1
        assert records[0][2] == "visible"


class TestAtomicsArea:
    def test_atomic_cycle(self):
        env = user_environment()
        atom = env.kml_atomic_int(5)
        assert env.kml_atomic_load(atom) == 5
        env.kml_atomic_store(atom, 7)
        assert env.kml_atomic_add(atom, 3) == 10
        assert env.kml_atomic_cas(atom, 10, 0)


class TestFilesArea:
    def test_write_read_size_close(self, tmp_path):
        env = user_environment()
        path = str(tmp_path / "f.bin")
        handle = env.kml_file_open(path, "wb")
        assert env.kml_file_write(handle, b"hello") == 5
        env.kml_file_close(handle)
        assert env.kml_file_size(path) == 5
        handle = env.kml_file_open(path, "rb")
        assert env.kml_file_read(handle) == b"hello"
        env.kml_file_close(handle)

    def test_kernel_root_jail(self, tmp_path):
        env = kernel_environment(file_root=str(tmp_path))
        handle = env.kml_file_open("inside.bin", "wb")
        env.kml_file_write(handle, b"x")
        env.kml_file_close(handle)
        with pytest.raises(PermissionError):
            env.kml_file_open("../escape.bin", "wb")

    def test_closed_handle_rejected(self, tmp_path):
        env = user_environment()
        handle = env.kml_file_open(str(tmp_path / "f"), "wb")
        env.kml_file_close(handle)
        with pytest.raises(ValueError):
            env.kml_file_write(handle, b"x")
        with pytest.raises(ValueError):
            env.kml_file_read(handle)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            user_environment().kml_file_open("x", "rq")


class TestInteroperability:
    """The paper's core claim: identical code in both environments."""

    def test_same_model_identical_outputs_in_both_profiles(self, tmp_path):
        import numpy as np

        from repro.kml import Linear, Sequential, Sigmoid, load_model, save_model

        rng = np.random.default_rng(0)
        model = Sequential([Linear(3, 4, rng=rng), Sigmoid(), Linear(4, 2, rng=rng)])
        x = np.random.default_rng(1).normal(size=(5, 3))
        reference = model.predict(x).to_numpy()

        path = str(tmp_path / "model.kml")
        save_model(model, path)
        for env in (user_environment(), kernel_environment(file_root=str(tmp_path))):
            relative = "model.kml" if env.kernel_mode else path
            handle = env.kml_file_open(relative, "rb")
            env.kml_file_close(handle)  # the dev API can reach the file
            loaded = load_model(path)
            np.testing.assert_array_equal(loaded.predict(x).to_numpy(), reference)
