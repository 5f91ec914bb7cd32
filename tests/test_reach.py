"""The package keeps what a command computes.

Under sys.setprofile, every workload's tiny benchmark operations
(perfbench/workloads.py, only read here) and a fixed list of CLI paths run,
two error paths among them.  Every named function the package defines
outside `verify` (methods and nested functions included; lambdas and
comprehensions are not counted) is either reached by that run or on
UNREACHED with one role:

- item-1: a corollary or option that ROADMAP item 1's problem mode for
  `threshold` will expose;
- oracle-input: a library value that a `verify` check tests or reads;
- verify-command: runs only under `support-limits verify`, which this run
  leaves out (its checks take seconds);
- traced-name: kept because the benchmark's tracer patches it by name
  (tests/test_traced_names.py);
- import: runs once, when the package is imported, before this run.

The unreached set must equal UNREACHED: new unreached code needs a command
path, a role or its deletion, and a listed function that a command now
reaches leaves the list.  The package's functools caches are cleared
first, so that a cached function, and what it calls, runs under the
profiler whichever tests ran before; the caches hold pure results, so
clearing them changes no value.

The public surface, support_limits.__all__, is pinned too: a name leaves it
only by an edit here.
"""
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

import support_limits
from support_limits import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load(WORKLOADS, "perfbench_workloads")

# every module of the package but `verify`, by name
MODULES = {
    path.stem: importlib.import_module(f"support_limits.{path.stem}")
    for path in sorted(Path(support_limits.__file__).parent.glob("*.py"))
    if path.stem not in ("__init__", "verify")
}

SIM = "simulate --seed 1 --n-grid 10:10:1 --trials 2"
CLI_PATHS = [
    "threshold --figure partial-recovery --snr-db=0:0:1 --grid-points 21 --verbose",
    "threshold --figure gt-noiseless --theta 0.3:0.3:0.1 --verbose",
    "threshold --figure gt-noisy --theta 0.2:0.2:0.1 --rho 0.11 --verbose",
    "threshold --figure gt-noiseless --theta 0.3:0.3:0.1 --format json",
    f"{SIM} --model gt --decoder ml --p 8 --k 2 --d-max 1",
    f"{SIM} --model gt --decoder comp --p 8 --k 2 --rho 0.11",
    f"{SIM} --model linear --decoder ml --b 1,2 --p 5 --k 2",
    f"{SIM} --model one-bit --decoder ml --prior permuted --b 1,1,2 --p 5 --k 3",
    f"{SIM} --model gt --decoder threshold --p 8 --k 2 --rho 0.11",
]
# (argv, exit code): the one-line refusals
ERROR_PATHS = [
    (f"{SIM} --model one-bit --prior gaussian --decoder ml --p 5 --k 2", cli.EXIT_CONFIG),
    ("threshold --figure gt-noiseless --config {config}", cli.EXIT_CONFIG),
]

ROLES = {"item-1", "oracle-input", "verify-command", "traced-name", "import"}

UNREACHED = {
    "bounds.BoundOptions.__post_init__": "import",
    "bounds._corollary_result": "item-1",
    "bounds._stirling_log_binom": "item-1",
    "bounds.cor_1bit_exact_lowsnr": "item-1",
    "bounds.cor_1bit_highsnr_converse": "item-1",
    "bounds.cor_1bit_partial": "item-1",
    "bounds.cor_general_discrete_converse": "item-1",
    "bounds.cor_general_discrete_converse.<locals>.rhs": "item-1",
    "bounds.cor_gt_partial": "item-1",
    "bounds.cor_linear_exact": "item-1",
    "bounds.cor_linear_partial": "item-1",
    "bounds.fano_lower_bound": "item-1",
    "bounds.gt_logit_entropy_margin": "oracle-input",
    "bounds.lasso_comparison_constant": "oracle-input",
    "bounds.log_partial_conv_subtraction": "item-1",
    "channels.GroupTesting.variance": "oracle-input",
    "channels.Linear.variance": "oracle-input",
    "channels.OneBit.variance": "oracle-input",
    "cli.cmd_verify": "verify-command",
    "conc.TailBoundSpec.psi": "traced-name",
    "conc.tail": "oracle-input",
    "info.density_variance": "oracle-input",
    "info.gaussian_logit_slope_constant": "oracle-input",
    "info.prior_divergence_stats": "oracle-input",
    "model.RealizationBlock.x_support": "oracle-input",
    "model.SignalPrior.all_ones": "oracle-input",
    "model.max_info_partition": "item-1",
    "model.min_info_partition": "oracle-input",
    "model.rng_stream": "oracle-input",
    "model.snr_db": "item-1",
    "numerics._load_special_ufuncs": "import",
    "numerics.entropy_perturbation": "verify-command",
    "numerics.gaussian_expectation": "oracle-input",
    "numerics.q_function": "oracle-input",
    "numerics.set_entropy_perturbation": "verify-command",
    "sim._averaged_partition_density": "oracle-input",
    "sim.threshold_union_bound": "oracle-input",
}


def _defined() -> dict[str, set[str]]:
    """module -> qualnames of the named functions its source defines."""
    out = {}
    for name, module in MODULES.items():
        path = module.__file__
        todo, names = [compile(Path(path).read_text(), path, "exec")], set()
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                names.add(code.co_qualname)
        out[name] = names
    return out


def _clear_caches() -> None:
    """Clear the functools cache of every cached function the modules
    define, at module level or in a class."""
    for module in MODULES.values():
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == module.__name__]
        for owner in owners:
            for obj in vars(owner).values():
                if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                    obj.cache_clear()


def _run_paths(config: Path) -> None:
    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload, 0, tiny=True):
            workloads.execute(op)
    runs = [(argv, cli.EXIT_OK) for argv in CLI_PATHS] + ERROR_PATHS
    for argv, code in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            got = cli.main(argv.format(config=config).split())
        assert got == code, argv


def _reached(config: Path) -> set[str]:
    files = {module.__file__: name for name, module in MODULES.items()}
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            module = files.get(frame.f_code.co_filename)
            if module:
                reached.add(f"{module}.{frame.f_code.co_qualname}")

    _clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_paths(config)
    finally:
        sys.setprofile(previous)
    return reached


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code objects' co_qualname")
def test_unreached_functions_are_the_allowlist(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no_such_key": 1}))
    defined = {f"{m}.{q}" for m, names in _defined().items() for q in names}
    assert set(UNREACHED) <= defined, "allowlisted but not defined"
    assert set(UNREACHED.values()) <= ROLES
    unreached = defined - _reached(config)
    new, gone = sorted(unreached - set(UNREACHED)), sorted(set(UNREACHED) - unreached)
    assert not new, f"unreached, and not on the allowlist: {new}"
    assert not gone, f"reached now, so off the allowlist: {gone}"


PUBLIC = [
    "BoundOptions",
    "DecoderSpec",
    "ModelSpec",
    "Partition",
    "ProblemDims",
    "SignalPrior",
    "SimReport",
    "ThresholdResult",
    "achievability_threshold_generic",
    "converse_threshold_generic",
    "cor_1bit_exact_lowsnr",
    "cor_1bit_partial",
    "cor_gt_noiseless",
    "cor_gt_noisy",
    "cor_gt_partial",
    "cor_linear_exact",
    "cor_linear_partial",
    "decode_comp",
    "decode_ml",
    "decode_threshold",
    "density_variance",
    "enumerate_partitions",
    "figure_curves",
    "min_info_partition",
    "mutual_information",
    "phase_sweep",
    "psi_function_1bit",
    "sample_realization",
    "snr_db",
]


def test_public_surface():
    assert support_limits.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(support_limits, name) is not None, name
