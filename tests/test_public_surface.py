"""Every public name in ``src/repro`` has a caller outside the tests.

The paper's library and runtime are meant to live in a kernel, where
each exported function is code someone has to port, review and keep
resident.  This guard parses ``src/``, ``benchmarks/``, ``examples/``
and ``perfbench/`` (not their tests) and fails on any public function,
class or method defined in ``src/repro`` that none of them references.
Test-only surface is therefore deleted, or justified in ``ALLOWED`` by
the change that adds it.

A *reference* is an ``ast.Name`` or ``ast.Attribute`` with the
definition's identifier (not an attribute of numpy: ``np.full`` is
numpy's name, not ``Matrix.full``), or a string constant equal to it: string
constants count because the metric rows of ``obs.instrument`` read
component attributes by name (``"pushed"`` reads
``CircularBuffer.pushed`` through ``getattr``).  An attribute is
resolved by its receiver where the scan can see the receiver's type:
``self`` and ``cls`` in a method, a parameter with a plain annotation,
a local or module global that only one constructor builds, or a
``self`` attribute that only one such type is assigned to
(``seen = set()`` makes ``seen.add`` a ``set`` method, which
references no ``add`` of ours).  A resolved attribute references that
name only in the receiver's class, its ancestors and its descendants;
any other attribute matches by name alone.  The definition itself,
imports and ``__all__`` do not count.  Private and dunder names are
exempt.  An ``ALLOWED`` entry fails once it is stale: the name is gone,
or it has a real caller.

The same pass fails on any import in a ``src`` module that the module
neither uses nor re-exports through ``__all__``; package
``__init__.py`` files, which exist to re-export, are exempt.

Four more scans cover what a caller search cannot see:

- a parameter of a public function or method that its own body never
  reads (``self`` / ``cls``, and bodies that only raise or pass, are
  exempt), listed as ``module.function(parameter)``;
- a dataclass field in ``src/repro`` that no caller reads, listed as
  ``module.Class.field``.  A read is an attribute load, a ``getattr``
  with the name as a string, or a string subscript key (a field of a
  ``dataclasses.asdict`` dict).  Construction by keyword and stores,
  ``+=`` included, are not reads;
- a module-level ``UPPER_CASE`` constant in ``src/repro`` that no
  caller loads by name or attribute, listed as ``module.NAME``;
- a defaulted parameter of a public function or method (``__init__``
  included, listed as ``module.Class(parameter)``) that no call outside
  the tests passes, listed as ``module.function(parameter)``.  A call
  passes a parameter by keyword, by reaching its position, or by any
  ``*args`` / ``**kwargs``.  Calls resolve by the callee's identifier,
  as the name scan does: a class name calls its ``__init__``, and so
  does ``super().__init__`` in a subclass.  Dataclass fields are the
  field scan's.

``ALLOWED`` takes these entries too, with the same staleness rule.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLERS = sorted(
    path
    for folder in ("src", "benchmarks", "examples", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if "tests" not in path.relative_to(ROOT).parts
)

#: The names numpy is imported under.
NUMPY_NAMES = ("np", "numpy")

#: Public names with no caller outside the tests, each with its reason.
ALLOWED = {
    "repro.runtime.portability.KmlEnvironment.api_functions":
        "paper section 3.3: lists the 27-function development API",
    "repro.runtime.portability.user_environment":
        "paper section 3.3: the user-space profile of the same API",
    "repro.runtime.portability.KmlEnvironment.in_fpu_section":
        "the FPU-bracketing proof ROADMAP relies on",
    "repro.kml.losses.mse.MSELoss": "a loss the paper names",
    "repro.kml.losses.binary_cross_entropy.BinaryCrossEntropyLoss":
        "a loss the paper names",
    "repro.stats.zscore.OnlineZScore":
        "the paper's streaming Z-score for in-kernel training",
    "repro.stats.zscore.OnlineZScore.normalize":
        "OnlineZScore's normalization step",
    "repro.kml.matrix.Matrix.exp":
        "the from-scratch exponential (paper section 2) beside Matrix.log, "
        "sqrt and softmax; the exp/log round-trip test checks it",
    "repro.kml.quantize.quantize_model":
        "int8 quantization (paper section 3.1), cited by docs/API.md",
    "repro.kml.autodiff.softmax_cross_entropy":
        "the reference the tests and the numerics golden compare against",
    "repro.os_sim.vfs.SimFS.mmap": "the paper's mmap interception",
    "repro.obs.instrument.instrument_supervisor":
        "its families are pinned by export_golden.prom",
    "repro.obs.metrics.Counter.inc":
        "a counter's own increment, as docs/OBSERVABILITY.md documents",
    "repro.faults.supervisor.TrainerSupervisor.healthy":
        "the documented ReadaheadAgent(health=...) predicate",
    "repro.os_sim.page_cache.PageCache.dirty_pages":
        "the dirty count the writeback tests assert on",
    # Parameters a protocol fixes: every policy is called as
    # on_tick(sim_time, rate), every scheduler as dispatch(now, head).
    "repro.readahead.agent.ReadaheadAgent.on_tick(rate)":
        "the closed-loop policy protocol; the bandit tuner reads rate",
    "repro.iosched.schedulers.NoopScheduler.dispatch(now)":
        "the Scheduler.dispatch protocol; deadline scheduling reads now",
    "repro.iosched.schedulers.NoopScheduler.dispatch(head)":
        "the Scheduler.dispatch protocol; the elevator reads head",
    "repro.iosched.schedulers.ElevatorScheduler.dispatch(now)":
        "the Scheduler.dispatch protocol; deadline scheduling reads now",
    # Dataclass fields no caller reads by attribute, getattr or key.
    "repro.minikv.db.DBStats.gets":
        "exported as kml_minikv_ops_total{op=get} by an instrument._stat row",
    "repro.minikv.db.DBStats.puts":
        "exported as kml_minikv_ops_total{op=put} by an instrument._stat row",
    "repro.minikv.db.DBStats.deletes":
        "exported as kml_minikv_ops_total{op=delete} by an instrument._stat row",
    "repro.minikv.db.DBStats.seeks":
        "exported as kml_minikv_ops_total{op=seek} by an instrument._stat row",
    "repro.minikv.db.DBStats.get_hits":
        "exported as kml_minikv_get_hits_total by an instrument._stat row",
    "repro.os_sim.page_cache.CacheStats.evicted":
        "whole-struct dataclasses.asdict into perfbench's digest; "
        "sim_golden.json pins it",
    "repro.os_sim.page_cache.CacheStats.prefetch_wasted":
        "whole-struct dataclasses.asdict into perfbench's digest; "
        "sim_golden.json pins it",
    "repro.os_sim.page_cache.CacheStats.writebacks":
        "whole-struct dataclasses.asdict into perfbench's digest; "
        "sim_golden.json pins it",
    "repro.iosched.engine.ScheduleResult.read_latencies_mean":
        "the mean-latency accounting the iosched tests check",
    "repro.iosched.engine.ScheduleResult.seek_distance_total":
        "the elevator's seek-distance saving the iosched tests check",
    # Module constants no caller reads.
    "repro.kml.fixedpoint.FX_EPS":
        "the Q16.16 resolution the fixed-point round-trip tests bound error by",
    "repro.readahead.tuning.DEFAULT_TUNING_TABLE":
        "the committed sweep result whose orderings the tuning tests check",
    "repro.readahead.agent.AgentDecision.inference_wall_s":
        "per-decision inference latency (paper section 4) for the "
        "planned per-tick decision log",
    "repro.faults.harness.CrashReport.site_evals":
        "crash-case context the crash-matrix tests report on failure",
    "repro.faults.harness.CrashReport.crash_nth":
        "crash-case context the crash-matrix tests report on failure",
    "repro.faults.harness.CrashReport.ops_acked":
        "crash-case context the crash-matrix tests check",
    "repro.faults.harness.CrashReport.pending_op":
        "crash-case context the crash-matrix tests check",
    # Defaulted parameters no call outside the tests passes.
    "repro.readahead.agent.ReadaheadAgent(health)":
        "fault containment: the agent pins the default readahead while "
        "the ML plane is degraded (docs/FAULTS.md)",
    "repro.readahead.agent.ReadaheadAgent(sample_buffer)":
        "E8 in-loop training: the agent feeds the async trainer's ring",
    "repro.readahead.agent.ReadaheadAgent(files)":
        "the paper actuates per-file ra_pages too (docs/API.md, Table-1 "
        "row 'Actuate readahead')",
    "repro.runtime.portability.KmlEnvironment.kml_atomic_int(value)":
        "paper section 3.3: a parameter of the 27-function development API",
    "repro.runtime.portability.KmlEnvironment.kml_create_thread(name)":
        "paper section 3.3: a parameter of the 27-function development API",
    "repro.runtime.portability.KmlEnvironment.kml_file_open(mode)":
        "paper section 3.3: a parameter of the 27-function development API",
    "repro.runtime.portability.KmlEnvironment.kml_file_read(size)":
        "paper section 3.3: a parameter of the 27-function development API",
    "repro.runtime.portability.KmlEnvironment.kml_join_thread(timeout)":
        "paper section 3.3: a parameter of the 27-function development API",
    "repro.runtime.portability.kernel_environment(file_root)":
        "paper section 3.3: jails the kernel profile's file API",
    "repro.cli.main(argv)":
        "the console entry point parses sys.argv when argv is None; the "
        "CLI tests run it in-process with their own",
    "repro.faults.supervisor.TrainerSupervisor(max_restarts)":
        "the restart policy docs/FAULTS.md documents",
    "repro.faults.supervisor.TrainerSupervisor(backoff_s)":
        "the restart policy docs/FAULTS.md documents",
    "repro.faults.supervisor.TrainerSupervisor(min_healthy_s)":
        "the restart policy docs/FAULTS.md documents",
    "repro.iosched.schedulers.DeadlineScheduler(read_deadline)":
        "mq-deadline's read expiry, the knob that makes it a deadline "
        "scheduler",
    "repro.iosched.schedulers.DeadlineScheduler(write_deadline)":
        "mq-deadline's write expiry, the knob that makes it a deadline "
        "scheduler",
    "repro.iosched.tuner.SchedulerSelector.fit_from_sweep(epochs)":
        "the selector's training length, as NeuralClassifier takes it",
    "repro.kml.layers.activations.ReLU(name)":
        "model_io rebuilds the layer as _STATELESS_LAYERS[kind](name=...)",
    "repro.kml.layers.activations.Tanh(name)":
        "model_io rebuilds the layer as _STATELESS_LAYERS[kind](name=...)",
    "repro.kml.layers.softmax.Softmax(name)":
        "model_io rebuilds the layer as _STATELESS_LAYERS[kind](name=...)",
    "repro.kml.layers.dropout.Dropout(rng)":
        "seeds the dropout mask, as every stochastic piece takes an rng",
    "repro.kml.quantize.quantize_model(exclude)":
        "names the Linear layers kept float, the fused zscore by default",
    "repro.obs.instrument.instrument_matrix_ops(sample_mask)":
        "the timing sample rate, as instrument_buffer and "
        "instrument_minikv take it; 0 times every op",
    "repro.obs.metrics.Counter.inc(amount)":
        "a Prometheus client counter's inc(amount); a negative amount "
        "is rejected",
    "repro.obs.metrics.MetricsRegistry.counter(help)":
        "instrument._bind creates each family as "
        "getattr(registry, kind)(name, help, labels=labels)",
    "repro.obs.metrics.MetricsRegistry.counter(labels)":
        "instrument._bind creates each family as "
        "getattr(registry, kind)(name, help, labels=labels)",
    "repro.obs.metrics.MetricsRegistry.gauge(help)":
        "instrument._bind creates each family as "
        "getattr(registry, kind)(name, help, labels=labels)",
    "repro.obs.metrics.MetricsRegistry.gauge(labels)":
        "instrument._bind creates each family as "
        "getattr(registry, kind)(name, help, labels=labels)",
    "repro.obs.metrics.MetricsRegistry.histogram(help)":
        "instrument._bind creates each family as "
        "getattr(registry, kind)(name, help, labels=labels)",
    "repro.obs.metrics.MetricsRegistry.histogram(labels)":
        "instrument._bind creates each family as "
        "getattr(registry, kind)(name, help, labels=labels)",
    "repro.obs.metrics.MetricsRegistry.histogram(buckets)":
        "a histogram family's bucket bounds, as MetricFamily takes them",
    "repro.os_sim.page_cache.PageCache(dirty_threshold)":
        "a writeback knob A3 tunes; WritebackConfig.apply sets it on a "
        "live cache",
    "repro.os_sim.page_cache.PageCache(writeback_batch)":
        "a writeback knob A3 tunes; WritebackConfig.apply sets it on a "
        "live cache",
    "repro.readahead.model.build_network(dtype)":
        "the paper's network in either element type; the numerics golden "
        "builds one per dtype",
    "repro.readahead.trace.dataset_from_traces(skip_first_windows)":
        "mirrors CollectionConfig.skip_first_windows for the offline path",
    "repro.workloads.base.Workload(value_size)":
        "workload_by_name builds every workload as cls(num_keys, value_size)",
    "repro.writeback.configs.sweep_writeback_configs(seed)":
        "the study's seed; the loop golden pins its writeback sweep with it",
}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(tree, module):
    """``(qualified name, identifier)`` of each public def and class.

    Module-level functions and classes, and the methods and nested
    classes of those classes; functions nested in functions are local.
    """
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = [(module, tree.body)]
    while stack:
        prefix, body = stack.pop()
        for node in body:
            if isinstance(node, kinds):
                if not node.name.startswith("_"):
                    yield f"{prefix}.{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    stack.append((f"{prefix}.{node.name}", node.body))


def _all_nodes(tree):
    """The nodes of each module-level ``__all__`` assignment."""
    return {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        for sub in ast.walk(node)
    }


def _on_numpy(node):
    """Whether ``node`` is an attribute of numpy (``np.full``, ``np.random.x``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in NUMPY_NAMES


#: Builtin types a local or global can be built by (``seen = set()``).
BUILTIN_TYPES = frozenset(
    ("set", "frozenset", "list", "dict", "tuple", "bytes", "bytearray", "str")
)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _constructed(value):
    """The type ``value`` builds, if the scan can see it: a literal
    list, dict or set, or a call of a builtin type or of a class name
    (a capitalised ``Name``)."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        name = value.func.id
        if name in BUILTIN_TYPES or name[:1].isupper():
            return name
    return None


def _annotated(annotation):
    """The type a plain annotation names (``k: Kernels``), if any: not a
    subscripted one, and not ``Any`` or ``object``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value
    elif isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Attribute):
        name = annotation.attr
    else:
        return None
    return name if name.isidentifier() and name not in ("Any", "object") else None


def _in_scope(node):
    """The nodes of ``node``'s own scope: its descendants, but not the
    bodies of the functions, lambdas and classes nested in it."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _in_scope(child)


def _bind(types, name, built):
    """Record a binding: a name keeps a type only while every binding
    gives it that one type."""
    types[name] = built if types.get(name, built) == built else None


def _single_target(node):
    """The one target of ``x = value`` or ``x: T = value``, else None."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return node.targets[0]
    if isinstance(node, ast.AnnAssign):
        return node.target
    return None


def _assigned_type(node):
    """The type an assignment gives its targets: what its value
    constructs, else the plain annotation of ``x: T = value``."""
    built = _constructed(node.value) if node.value is not None else None
    if built is None and isinstance(node, ast.AnnAssign):
        built = _annotated(node.annotation)
    return built


def _scope_types(scope, owner=None):
    """Name -> type for the names ``scope`` binds: the type of a
    parameter's plain annotation, or the one type every assignment of a
    name gives it; None (shadowed, unknown) for any other binding.  A
    method's first parameter is ``owner``, its class, unless static."""
    types = {}
    if not isinstance(scope, ast.Module):
        arguments = scope.args
        positional = [*arguments.posonlyargs, *arguments.args]
        for arg in [*positional, *arguments.kwonlyargs, arguments.vararg, arguments.kwarg]:
            if arg is not None:
                types[arg.arg] = _annotated(arg.annotation) if arg.annotation else None
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in getattr(scope, "decorator_list", ())
        )
        if owner and positional and not static:
            types[positional[0].arg] = owner
    assigned = set()
    for node in _in_scope(scope):
        target = _single_target(node)
        if isinstance(target, ast.Name):
            assigned.add(id(target))
            _bind(types, target.id, _assigned_type(node))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            if id(node) not in assigned:
                types[node.id] = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            types[node.name] = None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                types[(alias.asname or alias.name).split(".")[0]] = None
    return types


def _attribute_types(tree):
    """Class name -> attribute -> type, for the ``self.<attribute>``
    assignments in each class's methods (see :func:`_assigned_type`;
    any other store of the attribute makes its type unknown)."""
    out = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        types = out.setdefault(cls.name, {})
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if _on_self(target):
                        _bind(types, target.attr, _assigned_type(node))
                    else:
                        for sub in ast.walk(target):
                            if _on_self(sub):
                                types[sub.attr] = None
            elif isinstance(node, ast.AugAssign) and _on_self(node.target):
                types[node.target.attr] = None
    return out


def _on_self(node):
    """Whether ``node`` is an attribute of ``self``."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _references(tree):
    """What ``tree`` references by name, attribute or string.

    An attribute whose receiver's type the scan can see is resolved: it
    yields ``(type, attribute)``.  The receiver is a name -- ``self`` or
    ``cls`` in a method, a parameter with a plain annotation, or a local
    or module global that only a constructor builds (see
    :func:`_constructed`) -- or an attribute of ``self`` that only one
    type is assigned to.  Every other reference yields the bare
    identifier, which matches any definition of that name.  An
    attribute of numpy is numpy's name, not ours: ``np.full`` does not
    reference ``Matrix.full``.
    """
    skip = _all_nodes(tree)
    attributes = _attribute_types(tree)

    def receiver_type(receiver, env):
        if isinstance(receiver, ast.Name):
            return env.get(receiver.id)
        if isinstance(receiver, ast.Attribute) and isinstance(receiver.value, ast.Name):
            owner = env.get(receiver.value.id)
            return attributes.get(owner, {}).get(receiver.attr) if owner else None
        return None

    def walk(node, env, owner):
        for child in ast.iter_child_nodes(node):
            if id(child) in skip:
                continue
            if isinstance(child, ast.ClassDef):
                yield from walk(child, env, child.name)
                continue
            if isinstance(child, _SCOPES):
                yield from walk(child, {**env, **_scope_types(child, owner)}, None)
                continue
            if isinstance(child, ast.Name):
                yield child.id
            elif isinstance(child, ast.Attribute) and not _on_numpy(child):
                known = receiver_type(child.value, env)
                yield (known, child.attr) if known else child.attr
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                yield child.value
            yield from walk(child, env, None)

    return walk(tree, _scope_types(tree), None)


def _class_bases(tree):
    """Class name -> the names of its bases, for each class in ``tree``."""
    return {
        node.name: [
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        ]
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


def _unreferenced(definitions, references, bases):
    """The qualified names of ``definitions`` that ``references`` miss.

    A bare identifier references every definition of its name.  A
    resolved ``(type, attribute)`` references a method or nested class
    of that name only in a class related to ``type``: the class itself,
    an ancestor or a descendant (a base class calling ``self.hook()``
    reaches a subclass's ``hook``).  ``bases`` maps each class name to
    its bases' names.
    """

    def lineage(name):
        seen, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current not in seen:
                seen.add(current)
                todo += bases.get(current, ())
        return seen

    names = {ref for ref in references if isinstance(ref, str)}
    typed = {}
    for ref in references:
        if isinstance(ref, tuple):
            typed.setdefault(ref[1], set()).add(ref[0])
    missed = set()
    for qualname, name in definitions:
        if name in names:
            continue
        owner = qualname.split(".")[-2]
        if owner in bases and any(
            owner in lineage(known) or known in lineage(owner)
            for known in typed.get(name, ())
        ):
            continue
        missed.add(qualname)
    return missed


def _functions(tree, module):
    """``(qualified name, def node, is method)`` of each public function."""
    stack = [(module, tree.body, False)]
    while stack:
        prefix, body, in_class = stack.pop()
        for node in body:
            public = not getattr(node, "name", "_").startswith("_")
            if public and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}.{node.name}", node, in_class
            elif public and isinstance(node, ast.ClassDef):
                stack.append((f"{prefix}.{node.name}", node.body, True))


def _is_stub(function):
    """A body of only a docstring, ``pass``, ``...`` or ``raise``."""
    return all(
        isinstance(node, (ast.Pass, ast.Raise))
        or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        for node in function.body
    )


def _unread_parameters(tree, module):
    """``module.function(parameter)`` for each parameter the body never reads."""
    for qualname, function, is_method in _functions(tree, module):
        if _is_stub(function):
            continue
        args = function.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in function.decorator_list
        )
        if is_method and not static:
            names = names[1:]
        read = {
            node.id
            for statement in function.body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name)
        }
        for name in names:
            if name not in read:
                yield f"{qualname}({name})"


def _dataclass_fields(tree, module):
    """``(module.Class.field, field)`` of each dataclass field in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            continue
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                name = statement.target.id
                yield f"{module}.{node.name}.{name}", name


def _field_reads(tree):
    """Attribute loads, ``getattr`` names and string subscript keys.

    A subscript key reads a field of a ``dataclasses.asdict`` dict.  A
    store, ``+=`` included, is not a read: a counter only ever bumped is
    never looked at.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
        ):
            yield node.slice.value


_UPPER_CASE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _constants(tree, module):
    """``(module.NAME, NAME)`` of each module-level ``UPPER_CASE`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and _UPPER_CASE.match(target.id):
                yield f"{module}.{target.id}", target.id


def _loads(tree):
    """Names and attributes ``tree`` loads, outside ``__all__``."""
    skip = _all_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in skip or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unused_imports(tree):
    """Names ``tree`` imports but neither uses nor lists in ``__all__``."""
    skip = _all_nodes(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(
        node.value
        for node in ast.walk(tree)
        if id(node) in skip and isinstance(node, ast.Constant)
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield node.lineno, bound


def _signatures(tree, module):
    """``(entry prefix, callee, positional, defaulted)`` of each public def.

    ``callee`` is the identifier a call names: the function's own, or
    the class's for an ``__init__``, whose entries read
    ``module.Class(parameter)``.  ``positional`` are the parameters a
    call fills by position (``self`` / ``cls`` dropped) and
    ``defaulted`` those with a default.
    """
    stack = [(module, None, tree.body)]
    while stack:
        prefix, cls, body = stack.pop()
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                stack.append((f"{prefix}.{node.name}", node.name, node.body))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__" and cls:
                entry, callee = prefix, cls
            elif node.name.startswith("_"):
                continue
            else:
                entry, callee = f"{prefix}.{node.name}", node.name
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg
                for a, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            if cls and not static:
                positional = positional[1:]
            yield entry, callee, positional, defaulted


def _calls(tree):
    """``(callee identifier, call)`` of each call in ``tree``.

    A call names its callee by ``Name`` or ``Attribute`` (not by an
    attribute of numpy); a ``super().__init__(...)`` names each base of
    its class.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = [
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            ]
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__init__"
                    and isinstance(call.func.value, ast.Call)
                    and isinstance(call.func.value.func, ast.Name)
                    and call.func.value.func.id == "super"
                ):
                    for base in bases:
                        yield base, call
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute) and not _on_numpy(node.func):
                yield node.func.attr, node


def _unpassed_defaults(trees, module_of):
    """``entry(parameter)`` for each default no call in ``trees`` passes.

    A call passes a parameter by keyword, by reaching its position, or
    by any ``*args`` / ``**kwargs``.  ``module_of`` maps each tree whose
    definitions are scanned to its module name.
    """
    calls = {}
    for tree in trees:
        for callee, call in _calls(tree):
            calls.setdefault(callee, []).append(call)
    for tree, module in module_of.items():
        for entry, callee, positional, defaulted in _signatures(tree, module):
            passed = set()
            for call in calls.get(callee, ()):
                if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords
                ):
                    passed.update(defaulted)
                passed.update(positional[: len(call.args)])
                passed.update(k.arg for k in call.keywords)
            for name in defaulted:
                if name not in passed:
                    yield f"{entry}({name})"


def _stale(allowed, defined, uncalled):
    """Allowlist entries that are gone or now have a caller."""
    return sorted(
        f"{name}: " + ("not defined" if name not in defined else "has a caller")
        for name in allowed
        if name not in uncalled
    )


@pytest.fixture(scope="module")
def trees():
    """Each file of ``CALLERS`` (``src`` included), parsed once."""
    return {
        path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS
    }


@pytest.fixture(scope="module")
def definitions(trees):
    """``(qualified name, identifier)`` of every public name in ``src``."""
    return [
        definition
        for path, tree in trees.items()
        if SRC in path.parents
        for definition in _definitions(tree, _module_name(path))
    ]


@pytest.fixture(scope="module")
def uncalled(trees, definitions):
    referenced = {ref for tree in trees.values() for ref in _references(tree)}
    bases = {}
    for path, tree in trees.items():
        if SRC in path.parents:
            for name, names in _class_bases(tree).items():
                bases.setdefault(name, []).extend(names)
    return _unreferenced(definitions, referenced, bases)


@pytest.fixture(scope="module")
def unread_parameters(trees):
    return {
        entry
        for path, tree in trees.items()
        if SRC in path.parents
        for entry in _unread_parameters(tree, _module_name(path))
    }


@pytest.fixture(scope="module")
def fields(trees):
    """``(module.Class.field, field)`` of every dataclass field in ``src``."""
    return [
        field
        for path, tree in trees.items()
        if SRC in path.parents
        for field in _dataclass_fields(tree, _module_name(path))
    ]


@pytest.fixture(scope="module")
def unread_fields(trees, fields):
    read = {name for tree in trees.values() for name in _field_reads(tree)}
    return {qualname for qualname, name in fields if name not in read}


@pytest.fixture(scope="module")
def constants(trees):
    """``(module.NAME, NAME)`` of every module-level constant in ``src``."""
    return [
        constant
        for path, tree in trees.items()
        if SRC in path.parents
        for constant in _constants(tree, _module_name(path))
    ]


@pytest.fixture(scope="module")
def unread_constants(trees, constants):
    loaded = {name for tree in trees.values() for name in _loads(tree)}
    return {qualname for qualname, name in constants if name not in loaded}


@pytest.fixture(scope="module")
def unpassed_defaults(trees):
    return set(_unpassed_defaults(
        trees.values(),
        {
            tree: _module_name(path)
            for path, tree in trees.items()
            if SRC in path.parents
        },
    ))


def test_callers_found():
    assert ROOT / "src" / "repro" / "cli.py" in CALLERS
    assert ROOT / "perfbench" / "run.py" in CALLERS
    assert any(p.parent.name == "examples" for p in CALLERS)
    assert not any("tests" in p.relative_to(ROOT).parts for p in CALLERS)


def test_every_public_name_has_a_caller(uncalled):
    offenders = sorted(uncalled - set(ALLOWED))
    assert not offenders, (
        "public names only tests call (delete them, or add each to ALLOWED "
        f"with its reason): {offenders}"
    )


def test_every_parameter_is_read(unread_parameters):
    offenders = sorted(unread_parameters - set(ALLOWED))
    assert not offenders, (
        "parameters their own function never reads (delete them, or add "
        f"each to ALLOWED with its reason): {offenders}"
    )


def test_every_dataclass_field_is_read(unread_fields):
    offenders = sorted(unread_fields - set(ALLOWED))
    assert not offenders, (
        "dataclass fields nothing outside the tests reads (delete them, or "
        f"add each to ALLOWED with its reason): {offenders}"
    )


def test_every_module_constant_is_read(unread_constants):
    offenders = sorted(unread_constants - set(ALLOWED))
    assert not offenders, (
        "module constants nothing outside the tests reads (delete them, or "
        f"add each to ALLOWED with its reason): {offenders}"
    )


def test_every_default_is_passed(unpassed_defaults):
    offenders = sorted(unpassed_defaults - set(ALLOWED))
    assert not offenders, (
        "defaulted parameters only tests pass (make each a constant, "
        "delete it with the branch it guards, give it a real caller, or "
        f"add it to ALLOWED with its reason): {offenders}"
    )


def test_allowlist_entries_are_live_and_reasoned(
    trees, definitions, uncalled, unread_parameters, fields, unread_fields,
    constants, unread_constants, unpassed_defaults,
):
    parameters = {
        f"{qualname}({arg.arg})"
        for path, tree in trees.items()
        if SRC in path.parents
        for qualname, function, _ in _functions(tree, _module_name(path))
        for arg in ast.walk(function.args)
        if isinstance(arg, ast.arg)
    } | {
        f"{entry}({name})"
        for path, tree in trees.items()
        if SRC in path.parents
        for entry, _, _, defaulted in _signatures(tree, _module_name(path))
        for name in defaulted
    }
    defined = {
        qualname for qualname, _ in definitions + fields + constants
    } | parameters
    flagged = (
        uncalled | unread_parameters | unread_fields | unread_constants
        | unpassed_defaults
    )
    assert not _stale(ALLOWED, defined, flagged)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_src_imports_are_used(trees):
    offenders = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, tree in trees.items()
        if SRC in path.parents and path.name != "__init__.py"
        for line, name in _unused_imports(tree)
    ]
    assert not offenders, f"unused imports: {offenders}"


def test_guard_rules_on_a_sample():
    tree = ast.parse(
        "from os import path, sep\n"
        "import json\n"
        "import numpy as np\n"
        "np.orphan(np.random.by_attr)\n"
        "__all__ = ['Kept', 'sep', 'orphan']\n"
        "class Kept:\n"
        "    def used(self): return path.join(self.by_attr(), 'by_string')\n"
        "    def by_attr(self): ...\n"
        "    def by_string(self): ...\n"
        "    def orphan(self): ...\n"
        "    def __repr__(self): ...\n"
        "    def _private(self): ...\n"
        "def orphan(): ...\n"
    )
    names = dict(_definitions(tree, "m"))
    assert sorted(names) == [
        "m.Kept", "m.Kept.by_attr", "m.Kept.by_string", "m.Kept.orphan",
        "m.Kept.used", "m.orphan",
    ]
    referenced = set(_references(tree))
    # ``self.by_attr`` resolves to its class.
    assert {("Kept", "by_attr"), "by_string", "path"} <= referenced
    # Neither ``__all__``, the ``def`` itself nor numpy's ``np.orphan``
    # references ``orphan``.
    assert "orphan" not in referenced and "Kept" not in referenced
    assert _unreferenced(names.items(), referenced, _class_bases(tree)) == {
        "m.Kept", "m.Kept.orphan", "m.Kept.used", "m.orphan",
    }
    # ``json`` is unused; ``sep`` is re-exported; ``path`` is used.
    assert [name for _, name in _unused_imports(tree)] == ["json"]


def test_guard_catches_a_method_named_like_a_builtin_call():
    """A test-only ``BloomFilter.add`` beside a ``set.add`` in ``src``:
    the ``set.add`` resolves to ``set`` and references nothing of ours.
    Receivers whose type the scan cannot see still match by name."""
    tree = ast.parse(
        "SEEN = set()\n"
        "class BloomFilter:\n"
        "    def add(self, key): ...\n"
        "    def may_contain(self, key): return self._probe(key)\n"
        "    def _probe(self, key): ...\n"
        "class Filter(BloomFilter):\n"
        "    def hook(self): ...\n"
        "class Table:\n"
        "    def __init__(self):\n"
        "        self._keys = set()\n"
        "    def build(self, keys):\n"
        "        seen = set()\n"
        "        for key in keys:\n"
        "            seen.add(key)\n"
        "            SEEN.add(key)\n"
        "            self._keys.discard(key)\n"
        "        bloom = Filter()\n"
        "        return bloom.may_contain(keys[0])\n"
        "def typed(table: Table):\n"
        "    return table.build([])\n"
        "def unknown(table, other):\n"
        "    other = table.filter()\n"
        "    return other.contains(1)\n"
        "def shadowed(seen):\n"
        "    return seen.hook()\n"
    )
    referenced = set(_references(tree))
    assert {
        ("set", "add"), ("set", "discard"), ("Filter", "may_contain"),
        ("Table", "build"), "contains", "hook",
    } <= referenced
    assert not {"add", "may_contain", "build", "discard"} & referenced
    definitions = dict(_definitions(tree, "m"))
    missed = _unreferenced(definitions.items(), referenced, _class_bases(tree))
    # ``Filter()`` reaches its base's ``may_contain``; nothing reaches
    # ``add``; ``hook`` matches by name through an unknown receiver.
    assert missed == {"m.BloomFilter.add", "m.typed", "m.unknown", "m.shadowed"}
    # Take the ``set`` away and the same call matches by name again.
    untyped = ast.parse("def f(seen):\n    seen.add(1)\n")
    assert "add" in set(_references(untyped))


def test_parameter_and_field_rules_on_a_sample():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Record:\n"
        "    read_by_attr: int\n"
        "    read_by_string: int\n"
        "    never_read: int = 0\n"
        "    only_bumped: int = 0\n"
        "    by_key: int = 0\n"
        "    def total(self, used, unused, *, flag=None):\n"
        "        self.only_bumped += 1\n"
        "        label = 'never_read'\n"
        "        return self.read_by_attr + getattr(self, 'read_by_string') + used\n"
        "    def keyed(self, stats): return stats['by_key']\n"
        "    @staticmethod\n"
        "    def build(first): return Record(1, 2, never_read=first)\n"
        "    def abstract(self, x):\n"
        "        'Subclasses read x.'\n"
        "        raise NotImplementedError\n"
        "    def _private(self, ignored): ...\n"
        "def helper(a, b): return a\n"
    )
    assert sorted(_unread_parameters(tree, "m")) == [
        "m.Record.total(flag)", "m.Record.total(unused)", "m.helper(b)",
    ]
    read = set(_field_reads(tree))
    unread = [q for q, name in _dataclass_fields(tree, "m") if name not in read]
    # Construction by keyword (``never_read=first``), a ``+=`` and a
    # bare string constant are not reads.
    assert unread == ["m.Record.never_read", "m.Record.only_bumped"]


def test_constant_rule_on_a_sample():
    tree = ast.parse(
        "__all__ = ['EXPORTED_ONLY']\n"
        "EXPORTED_ONLY = 1\n"
        "LOADED = 2\n"
        "_PRIVATE = 3\n"
        "lower = 4\n"
        "ANNOTATED: int = 5\n"
        "def f(): return LOADED + f.ANNOTATED\n"
    )
    names = dict(_constants(tree, "m"))
    assert sorted(names) == [
        "m.ANNOTATED", "m.EXPORTED_ONLY", "m.LOADED", "m._PRIVATE",
    ]
    loaded = set(_loads(tree))
    # Neither ``__all__`` nor the assignment itself reads a constant.
    unread = sorted(q for q, name in names.items() if name not in loaded)
    assert unread == ["m.EXPORTED_ONLY", "m._PRIVATE"]


def test_stale_entries_reported():
    allowed = {"m.gone": "x", "m.called": "x", "m.test_only": "x"}
    defined = {"m.called", "m.test_only"}
    uncalled = {"m.test_only"}
    assert _stale(allowed, defined, uncalled) == [
        "m.called: has a caller",
        "m.gone: not defined",
    ]


def test_default_rule_on_a_sample():
    src = ast.parse(
        "class Base:\n"
        "    def __init__(self, size, by_super=1, unpassed=2):\n"
        "        self.size = size\n"
        "class Child(Base):\n"
        "    def __init__(self, by_position=0, by_keyword=0):\n"
        "        super().__init__(4, by_super=5)\n"
        "    def method(self, first=0, second=0): ...\n"
        "def spread(a, by_star=1): ...\n"
        "def options(*, by_kwargs=0): ...\n"
        "def tested(a, only_tests=None): ...\n"
        "def _private(x=1): ...\n"
        "Child(1, by_keyword=2).method(0)\n"
        "spread(*args)\n"
        "options(**settings)\n"
        "tested(1)\n"
    )
    test = ast.parse("tested(1, only_tests=2)\n")
    unpassed = sorted(_unpassed_defaults([src], {src: "m"}))
    assert unpassed == [
        "m.Base(unpassed)", "m.Child.method(second)", "m.tested(only_tests)",
    ]
    # A pass from a test file counts only if the scan is given that file,
    # and ``CALLERS`` never holds one.
    assert "m.tested(only_tests)" not in set(
        _unpassed_defaults([src, test], {src: "m"})
    )
    defined = {
        f"{entry}({name})"
        for entry, _, _, defaulted in _signatures(src, "m")
        for name in defaulted
    }
    allowed = {
        "m.tested(only_tests)": "x", "m.Child(by_keyword)": "x",
        "m.tested(gone)": "x",
    }
    assert _stale(allowed, defined, set(unpassed)) == [
        "m.Child(by_keyword): has a caller",
        "m.tested(gone): not defined",
    ]
