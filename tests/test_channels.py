import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import support_limits
from support_limits import info
from support_limits import model as md
from support_limits import numerics as nm
from support_limits.channels import (
    CHANNELS,
    Channel,
    _any_nonzero,
    _energy,
    _flip_logs,
    _gt_table,
    gt_mi_closed_form,
)
from support_limits.numerics import (
    NonConvergenceError,
    gauss_hermite_nodes,
    log_q_function,
    mean_entropy_q_scaled,
)

# (model, b, output alphabet or None for a continuous channel)
CASES = {
    "linear": (md.ModelSpec.linear(0.8), [1.0, -0.6, 0.3], None),
    "one-bit": (md.ModelSpec.one_bit(1.0), [1.0, -0.6, 0.3], (-1.0, 1.0)),
    "group-testing": (md.ModelSpec.group_testing(rho=0.11), [1.0, 1.0, 1.0], (0.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_density_is_loglik_minus_log_marginal(name):
    model, b, alphabet = CASES[name]
    channel = CHANNELS[model.channel]
    b = np.asarray(b)
    rng = md.rng_stream(5)
    raw, noise = np.empty((400, 3)), np.empty(400)
    channel.draw(model, rng, raw, noise)
    x = channel.design(model, raw, 3)
    y = channel.outputs(model, x, b, noise)
    for part in md.enumerate_partitions(3):
        dens = info.density_rows(model, part, b, x, y)
        expected = channel.loglik_rows(model, x, b, y) - channel.log_marginal_rows(
            model, part, x, b, y
        )
        assert np.array_equal(dens, expected)
        if alphabet is None:
            continue
        total = sum(
            np.exp(channel.log_marginal_rows(model, part, x, b, np.full(y.size, v)))
            for v in alphabet
        )
        assert np.allclose(total, 1.0, rtol=0, atol=1e-12)



@pytest.mark.parametrize("name", sorted(CASES))
def test_loglik_of_a_stack_against_per_candidate_outputs(name):
    # C candidates, each with its own n outputs: one sum per candidate over
    # its n rows, equal to the candidate's own call
    model, b, _ = CASES[name]
    channel = CHANNELS[model.channel]
    b = np.asarray(b)
    rng = md.rng_stream(6)
    raw, noise = np.empty((5, 40, 3)), np.empty((5, 40))
    for c in range(5):
        channel.draw(model, rng, raw[c], noise[c])
    x = channel.design(model, raw, 3)
    y = channel.outputs(model, x, b, noise)
    stacked = channel.loglik(model, x, b, y)
    assert stacked.shape == (5,)
    for c in range(5):
        assert stacked[c] == channel.loglik(model, x[c], b, y[c])
        assert stacked[c] == pytest.approx(np.sum(channel.loglik_rows(model, x[c], b, y[c])))


@pytest.mark.parametrize(
    "model",
    [md.ModelSpec.one_bit(1.0), md.ModelSpec.one_bit(0.05), md.ModelSpec.group_testing(rho=0.0),
     md.ModelSpec.group_testing(rho=0.11)]
    + [md.ModelSpec.linear(s) for s in (1e-150, 0.05, 0.3, 1 / math.sqrt(2 * math.pi), 1.0, 3.0)],
    ids=lambda m: f"{m.channel}-{m.sigma:g}-{m.rho:g}",
)
def test_no_likelihood_row_exceeds_row_max(model):
    # the bound exhaustive ML prunes with: every row, the exact-fit rows of
    # the linear channel (residual 0) included, is at most loglik_row_max
    channel = CHANNELS[model.channel]
    row_max = channel.loglik_row_max(model)
    assert type(row_max) is float and math.isfinite(row_max)
    b = np.array([1.0, -0.6, 0.3])
    rng = md.rng_stream(8)
    raw, noise = np.empty((6, 50, 3)), np.empty((6, 50))
    for c in range(6):
        channel.draw(model, rng, raw[c], noise[c])
    x = channel.design(model, raw, 3)
    y = channel.outputs(model, x, b, noise)
    rows = channel.loglik_rows(model, x, b, y)
    assert rows.max() <= row_max
    if model.channel == md.LINEAR:
        exact = channel.loglik_rows(model, x, b, x @ b)
        assert exact.max() == row_max
        assert row_max == pytest.approx(-0.5 * math.log(2 * math.pi * model.sigma**2), rel=1e-15)
    else:
        assert row_max == 0.0


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_one_likelihood_method_per_channel(name):
    # each channel writes its likelihood once, as the (rows, sum) pair; only
    # the base class reads loglik_rows and loglik off that pair
    mro = type(CHANNELS[name]).__mro__
    assert any("loglik_rows_and_sum" in vars(cls) for cls in mro[: mro.index(Channel)])
    for cls in mro:
        if cls is not Channel:
            assert "loglik_rows" not in vars(cls) and "loglik" not in vars(cls), cls


@pytest.mark.parametrize("name", sorted(CASES))
def test_loglik_rows_and_loglik_are_the_pair(name):
    model, b, _ = CASES[name]
    channel = CHANNELS[model.channel]
    b = np.asarray(b)
    rng = md.rng_stream(7)
    raw, noise = np.empty((4, 30, 3)), np.empty((4, 30))
    for c in range(4):
        channel.draw(model, rng, raw[c], noise[c])
    x = channel.design(model, raw, 3)
    y = channel.outputs(model, x, b, noise)
    # one (n x k) candidate gives a float sum, a (C x n x k) stack C sums
    for x_s, y_s in ((x[0], y[0]), (x, y)):
        rows, total = channel.loglik_rows_and_sum(model, x_s, b, y_s)
        assert np.array_equal(channel.loglik_rows(model, x_s, b, y_s), rows)
        assert np.array_equal(channel.loglik(model, x_s, b, y_s), total)
    assert isinstance(channel.loglik(model, x[0], b, y[0]), float)
    assert channel.loglik(model, x, b, y).shape == (4,)


# ---------------------------------------------------------------------------
# Group testing reads "some column is non-zero" per row as an OR over the k
# columns, equal to the trailing-axis reduction it replaced
# ---------------------------------------------------------------------------


def _any_reference(x):
    return x.astype(bool).any(axis=-1)


@pytest.mark.parametrize("k", [0, 1, 2, 12])
def test_any_nonzero_equals_the_reduction(k):
    rng = md.rng_stream(21, k)
    x = np.where(rng.random((9, 30, k)) < 0.2, 1.0, 0.0)
    for stack in (x, x[0], x.astype(bool), x > 2.0):
        got = _any_nonzero(stack)
        assert got.dtype == bool and got.shape == stack.shape[:-1]
        assert np.array_equal(got, _any_reference(stack))
    if k == 0:
        assert not _any_nonzero(x).any()


def test_any_nonzero_reads_nan_negatives_and_signed_zeros():
    x = np.array([
        [np.nan, 0.0], [-0.0, 0.0], [-0.0, -0.0], [-2.0, 0.0], [0.0, -1e-300], [0.0, np.inf],
    ])
    assert _any_nonzero(x).tolist() == _any_reference(x).tolist()
    assert _any_nonzero(x).tolist() == [True, False, False, True, True, True]


@pytest.mark.parametrize("k", [1, 2, 12])
def test_any_nonzero_on_support_views(k):
    # RealizationBlock.x_support() returns strided views, not C-ordered stacks
    dims = md.ProblemDims(p=16, k=k, n=25)
    model = md.ModelSpec.group_testing(rho=0.11)
    reals = md.sample_realization(dims, model, md.SignalPrior.all_ones(), 3, trials=range(6))
    assert k == 1 or not reals.x_support().flags.c_contiguous
    for x_s in (reals.x_support(), reals.x[2][:, reals.support[2] - 1]):
        assert np.array_equal(_any_nonzero(x_s), _any_reference(x_s))


def test_any_nonzero_of_columns_equals_the_indexed_reduction():
    x = np.where(md.rng_stream(22).random((7, 40, 3)) < 0.3, 1.0, 0.0)
    for part in md.enumerate_partitions(3):
        eq = part.eq_index()
        assert np.array_equal(_any_nonzero(x, eq), _any_reference(x[..., eq]))
    assert not _any_nonzero(x, np.array([], dtype=int)).any()


def _old_gt_outputs(spec, x_s, noise):
    hit = x_s.astype(bool).any(axis=-1)
    if spec.rho > 0.0:
        hit ^= noise < spec.rho
    return hit.astype(float)


def _old_gt_loglik(spec, x_s, y):
    match = (y > 0.5) == x_s.astype(bool).any(axis=-1)
    log_match, log_miss = _flip_logs(spec.rho)
    n_miss = np.sum(~match, axis=-1)
    total = CHANNELS[spec.channel].score(spec, y.shape[-1], n_miss)
    return np.where(match, log_match, log_miss), float(total) if np.ndim(total) == 0 else total


def _old_gt_marginal(spec, partition, x_s, y):
    t = CHANNELS[spec.channel].table(spec, partition)
    eq_hit = x_s[..., partition.eq_index()].astype(bool).any(axis=-1)
    y1 = y > 0.5
    return np.where(
        eq_hit, np.where(y1, t.log_match, t.log_miss), np.where(y1, t.log_y1, t.log_y0)
    )


# y = +-1, sigma and the arguments of the 1-bit likelihoods, edge values included
_ONE_BIT_ARGS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324, 40.0, -40.0],
    md.rng_stream(31).standard_normal(10**4),
])


@pytest.mark.parametrize("sigma", [1.0, 0.3, 1e-300, 7.0])
@pytest.mark.parametrize("y", [1.0, -1.0])
def test_one_bit_log_ndtr_equals_log_q_of_the_negation(y, sigma):
    # the 1-bit likelihoods take log_ndtr(y u / sigma) for log Q(-y u / sigma):
    # negation is exact, so the bits agree, NaN and signed zeros included
    for u in (_ONE_BIT_ARGS, _ONE_BIT_ARGS[: 220 * 45].reshape(220, 45)):
        with np.errstate(over="ignore"):  # 1e308 / 1e-300
            new, old = nm.log_ndtr(y * u / sigma), log_q_function(-y * u / sigma)
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 7.0])
def test_one_bit_rows_equal_the_log_q_form(sigma):
    model, b = md.ModelSpec.one_bit(sigma), np.array([1.0, -0.6, 0.3])
    channel = CHANNELS[model.channel]
    rng = md.rng_stream(11)
    raw, noise = np.empty((5, 40, 3)), np.empty((5, 40))
    for c in range(5):
        channel.draw(model, rng, raw[c], noise[c])
    x = channel.design(model, raw, 3)
    y = channel.outputs(model, x, b, noise)
    for x_s, y_s in ((x[0], y[0]), (x, y)):
        rows, _ = channel.loglik_rows_and_sum(model, x_s, b, y_s)
        old = log_q_function(-y_s * (x_s @ b) / sigma)
        assert np.array_equal(rows.view(np.uint64), old.view(np.uint64))
        for part in md.enumerate_partitions(3):
            eq, scale = part.eq_index(), math.sqrt(sigma**2 + _energy(b, part.dif_index()))
            old = log_q_function(-y_s * (x_s[..., eq] @ b[eq]) / scale)
            new = channel.log_marginal_rows(model, part, x_s, b, y_s)
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


@pytest.mark.parametrize("rho", [0.0, 0.11])
def test_gt_methods_equal_the_reduction_formulas(rho):
    model = md.ModelSpec.group_testing(rho=rho)
    channel, b = CHANNELS[model.channel], np.ones(3)
    dims = md.ProblemDims(p=9, k=3, n=30)
    reals = md.sample_realization(dims, model, md.SignalPrior.all_ones(), 4, trials=range(20))
    noise = md.rng_stream(23).random((20, 30))
    x_true = reals.x_support()
    y = _old_gt_outputs(model, x_true, noise)
    assert np.array_equal(channel.outputs(model, x_true, b, noise), y)
    # each trial's own support, and every candidate of one trial's design
    # against its outputs, where zero-likelihood candidates are common at rho = 0
    cands = np.array(list(itertools.combinations(range(dims.p), 3)))
    x_cands = np.moveaxis(reals.x[0][:, cands], 1, 0)
    for x_s, y_s in ((x_true, y), (x_true[0], y[0]), (x_cands, y[0])):
        rows, total = channel.loglik_rows_and_sum(model, x_s, b, y_s)
        old_rows, old_total = _old_gt_loglik(model, x_s, y_s)
        assert np.array_equal(rows, old_rows) and np.array_equal(total, old_total)
        assert type(total) is type(old_total)
        for part in md.enumerate_partitions(3):
            assert np.array_equal(
                channel.log_marginal_rows(model, part, x_s, b, y_s),
                _old_gt_marginal(model, part, x_s, y_s),
            )
    if rho == 0.0:
        assert np.isneginf(channel.loglik(model, x_cands, b, y[0])).any()


# ---------------------------------------------------------------------------
# mutual_information and density_variance equal the joint computation they
# were split from (an inline copy of the channels' former mi_var)
# ---------------------------------------------------------------------------


def _old_mi_var(spec, partition, b):
    if spec.channel == md.LINEAR:
        sig_l_sq = _energy(np.asarray(b, dtype=float), partition.dif_index())
        mi = 0.5 * math.log1p(sig_l_sq / spec.sigma**2)
        return mi, sig_l_sq / (spec.sigma**2 + sig_l_sq)
    if spec.channel == md.ONE_BIT:
        b = np.asarray(b, dtype=float)
        sig_l_sq = _energy(b, partition.dif_index())
        sig_eq_sq = _energy(b, partition.eq_index())
        if sig_l_sq == 0.0:
            return 0.0, 0.0
        a_eq = math.sqrt(sig_eq_sq / (spec.sigma**2 + sig_l_sq))
        a_s = math.sqrt((sig_l_sq + sig_eq_sq)) / spec.sigma
        mi = mean_entropy_q_scaled(a_eq) - mean_entropy_q_scaled(a_s)
        sigma, s_dif, s_eq = spec.sigma, math.sqrt(sig_l_sq), math.sqrt(sig_eq_sq)
        z, w = gauss_hermite_nodes()
        wd = s_dif * z[:, None]
        we = s_eq * z[None, :]
        denom_scale = math.sqrt(sigma**2 + s_dif**2)
        mean = 0.0
        second = 0.0
        for y in (1.0, -1.0):
            dens = log_q_function(-y * (wd + we) / sigma) - log_q_function(-y * we / denom_scale)
            p_y = np.exp(log_q_function(-y * (wd + we) / sigma))
            mean += float(w @ (p_y * dens) @ w)
            second += float(w @ (p_y * dens**2) @ w)
        return max(0.0, mi), max(0.0, second - mean**2)
    mi = gt_mi_closed_form(spec.nu, partition.k, partition.ell, spec.rho)
    t = _gt_table(spec.bernoulli_p(partition.k), partition.k, partition.ell, spec.rho)
    mean = 0.0
    second = 0.0
    for pr, v in zip(t.probs, t.vals):
        if pr > 0.0:
            mean += pr * v
            second += pr * v * v
    return mi, max(0.0, second - mean**2)


_SPLIT_CASES = [
    (make(sigma), b, part)
    for make in (md.ModelSpec.linear, md.ModelSpec.one_bit)
    for sigma in (0.5, 1.0, 3.0)
    for b in ([1.0, -0.5, 2.0], [2.0, 2.0, 2.0], [0.0, 0.0, 1.0])
    for part in md.enumerate_partitions(3)
] + [
    (md.ModelSpec.group_testing(rho=rho), None, part)
    for rho in (0.0, 0.11)
    for k in (3, 10)
    for part in (md.min_info_partition([1.0] * k, ell) for ell in range(1, k + 1))
]


@pytest.mark.parametrize("model, b, part", _SPLIT_CASES)
def test_mi_and_variance_equal_the_joint_computation(model, b, part):
    mi, var = _old_mi_var(model, part, b)
    assert info.mutual_information(model, part, b) == mi
    assert info.density_variance(model, part, b) == var
    assert type(info.mutual_information(model, part, b)) is float


def test_non_finite_one_bit_variance_raises_only_in_density_variance():
    # s_dif / sigma = 1e80: the squared density overflows at the outer nodes,
    # and 0 * inf makes the variance nan; the mutual information stays finite
    model, b = md.ModelSpec.one_bit(1.0), [1e80, 1.0]
    part = md.Partition(s_dif=(1,), s_eq=(2,))
    assert np.isfinite(info.mutual_information(model, part, b))
    with pytest.raises(NonConvergenceError), np.errstate(over="ignore", invalid="ignore"):
        info.density_variance(model, part, b)


# ---------------------------------------------------------------------------
# Each channel fact is written once: outside `channels` no module branches on
# the channel's name.  The oracles in `verify` may, because they must stay
# independent of the channel table.
# ---------------------------------------------------------------------------

PACKAGE = Path(support_limits.__file__).parent
CHANNEL_NAMES = {"LINEAR", "ONE_BIT", "GROUP_TESTING"}
MODULES = sorted(
    path.stem for path in PACKAGE.glob("*.py") if path.name not in ("channels.py", "verify.py")
)


def _channel_comparisons(tree) -> list[int]:
    """Lines of the comparisons with a `.channel` operand."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(sub, ast.Attribute) and sub.attr == "channel"
            for operand in (node.left, *node.comparators)
            for sub in ast.walk(operand)
        )
    ]


def _channel_name_imports(tree) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } & CHANNEL_NAMES


@pytest.mark.parametrize("name", MODULES)
def test_no_branch_on_the_channel_name(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    assert not _channel_comparisons(tree)
    if name in ("cli", "sim", "info"):
        assert not _channel_name_imports(tree)


def test_the_structural_check_sees_a_branch():
    tree = ast.parse(
        "from .model import LINEAR, ModelSpec\n"
        "if model.channel != LINEAR:\n    pass\n"
        "ok = prior.variant == 'all-ones'\n"
        "gt = 'group-testing' in (spec.channel,)\n"
    )
    assert _channel_comparisons(tree) == [2, 5]
    assert _channel_name_imports(tree) == {"LINEAR"}


# ---------------------------------------------------------------------------
# Every package import is at module top, so the import graph is what the
# module headers say: `conc` is a leaf over `numerics`, and `channels` builds
# its tail families from it.  `cli` imports `verify` inside `cmd_verify`
# only, which keeps the other commands' start-up short.
# ---------------------------------------------------------------------------

DEFERRED_IMPORTS = {"cli": {("verify", "cmd_verify")}}


def _package_imports(tree) -> list[tuple[str, str | None]]:
    """(package module, enclosing function or None) of each import of a
    support_limits module, in source order."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if child.level == 0:  # absolute: only support_limits[.x] counts
                    if module.split(".")[0] != "support_limits":
                        continue
                    module = module.removeprefix("support_limits").lstrip(".")
                mods = [module] if module else [a.name for a in child.names]
                found.extend((m.split(".")[0], func) for m in mods)
            elif isinstance(child, ast.Import):
                found.extend(
                    (a.name.split(".")[1], func)
                    for a in child.names
                    if a.name.startswith("support_limits.")
                )
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("name", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_package_imports_at_module_top(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    deferred = {imp for imp in _package_imports(tree) if imp[1] is not None}
    assert deferred <= DEFERRED_IMPORTS.get(name, set())


def test_conc_is_a_leaf_over_numerics():
    tree = ast.parse((PACKAGE / "conc.py").read_text())
    assert {module for module, _ in _package_imports(tree)} == {"numerics"}


def test_the_import_walker_sees_each_form():
    tree = ast.parse(
        "import math\n"
        "from . import bounds, numerics as nm\n"
        "from .model import ModelSpec\n"
        "from support_limits.info import mutual_information\n"
        "import support_limits.sim\n"
        "class A:\n"
        "    def f(self):\n"
        "        from .conc import tail\n"
        "        import scipy\n"
        "def g():\n"
        "    h = lambda: None\n"
        "    def inner():\n"
        "        from support_limits import verify\n"
    )
    assert _package_imports(tree) == [
        ("bounds", None), ("numerics", None), ("model", None), ("info", None), ("sim", None),
        ("conc", "f"), ("verify", "inner"),
    ]


# ---------------------------------------------------------------------------
# No trailing-axis reduction in `channels`: numpy reduces a short last axis
# one row at a time, so group testing ORs its k columns instead
# ---------------------------------------------------------------------------


def _last_axis_reductions(tree) -> list[int]:
    """Lines of the .any(...) and .all(...) calls given axis=-1, by keyword
    or as the first argument."""
    def is_last(node):
        return (
            isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant) and node.operand.value == 1
        ) or (isinstance(node, ast.Constant) and node.value == -1)

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("any", "all")
        and (
            any(kw.arg == "axis" and is_last(kw.value) for kw in node.keywords)
            or (node.args and is_last(node.args[0]))
        )
    ]


def test_no_last_axis_any_or_all_in_channels():
    assert not _last_axis_reductions(ast.parse((PACKAGE / "channels.py").read_text()))


def test_the_reduction_check_sees_each_form():
    tree = ast.parse(
        "hit = x_s.astype(bool).any(axis=-1)\n"
        "ok = np.isfinite(dens).all(-1)\n"
        "both = np.all(x, axis=-1)\n"
        "rows = x.any(axis=1)\n"
        "total = np.sum(x, axis=-1)\n"
        "text = 'x.any(axis=-1)'\n"
    )
    assert _last_axis_reductions(tree) == [1, 2, 3]
