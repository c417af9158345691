"""semifold._lapack against scipy.linalg.lapack, the reference: the same
bits and the same info, for every routine, on what the package passes
and on what it never should.  The ctypes bindings exist only where numpy
bundles its OpenBLAS; elsewhere _lapack is SciPy's, which the fallback
tests check too."""

import ctypes
import glob
import importlib.util

import numpy as np
import pytest
import scipy.linalg.lapack as ref

from semifold import _lapack

bound = pytest.mark.skipif(_lapack.LIBRARY == "scipy.linalg.lapack",
                           reason="numpy bundles no OpenBLAS here")


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape
            assert np.array_equal(g, w)
            assert np.asarray(g, dtype=w.dtype).tobytes() == w.tobytes()
        else:
            assert g == w


def system(n, cols, seed=0, shift=0.0):
    rng = np.random.default_rng(seed + n)
    dl, d, du = (rng.standard_normal(n - 1), rng.standard_normal(n) + shift,
                 rng.standard_normal(n - 1))
    b = rng.standard_normal(n if cols is None else (n, cols))
    return dl, d, du, b


def spd(d, e):
    """A symmetric positive definite (diagonal, off-diagonal) pair."""
    pad = np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e])
    return np.abs(d) + 2.0 * pad + 1.0, e


SIZES = [2, 3, 5, 4000, 64000]
# one 1-D right-hand side, or a matrix whose columns are solved one by one
COLUMNS = [None, 1, 2]


@bound
@pytest.mark.parametrize("cols", COLUMNS)
@pytest.mark.parametrize("n", SIZES)
def test_every_routine_gives_scipys_bits(n, cols):
    """Each routine takes one column.  On a 1-D right-hand side it gives
    SciPy's bits; on each column of a matrix, solved alone, it gives the
    bits of that column in SciPy's solve of the whole matrix."""
    dl, d, du, b = system(n, cols)
    rhs = [b] if cols is None else list(b.T)

    def each_column(solve, want, at):
        """solve(column) against `want`, whose solution is want[at]."""
        for j, col in enumerate(rhs):
            cut = list(want)
            if cols is not None:
                cut[at] = want[at][:, j]
            assert_same(solve(col), tuple(cut))

    each_column(lambda col: _lapack.dgtsv(dl, d, du, col),
                ref.dgtsv(dl, d, du, b), 3)
    if n > 2:  # SciPy's ?gttrf wrapper rejects n = 2
        lu = _lapack.dgttrf(dl, d, du)
        lu_ref = ref.dgttrf(dl, d, du)
        assert_same(lu, lu_ref)
        each_column(lambda col: _lapack.dgttrs(*lu[:5], col),
                    ref.dgttrs(*lu_ref[:5], b), 0)
    dd, e = spd(d, dl)
    f = _lapack.dpttrf(dd, e)
    f_ref = ref.dpttrf(dd, e)
    assert_same(f, f_ref)
    each_column(lambda col: _lapack.dpttrs(*f[:2], col),
                ref.dpttrs(*f_ref[:2], b), 0)


@bound
def test_factor_solve_is_the_one_shot_solve_at_n_2():
    dl, d, du, b = system(2, None, shift=3.0)
    lu = _lapack.dgttrf(dl, d, du)
    assert lu[-1] == 0
    x, info = _lapack.dgttrs(*lu[:5], b)
    assert info == 0
    assert np.array_equal(x, ref.dgtsv(dl, d, du, b)[3])


@bound
def test_singular_and_indefinite_report_scipys_info():
    n = 7
    dl, d, du, b = system(n, None)
    # row and column 4 zero: elimination meets a zero pivot there
    d[3] = dl[2] = du[2] = dl[3] = du[3] = 0.0
    got, want = _lapack.dgtsv(dl, d, du, b), ref.dgtsv(dl, d, du, b)
    assert want[-1] > 0
    assert got[-1] == want[-1]
    got, want = _lapack.dgttrf(dl, d, du), ref.dgttrf(dl, d, du)
    assert want[-1] > 0
    assert_same(got, want)
    dd, e = spd(d, dl)
    dd[4] = -1.0
    got, want = _lapack.dpttrf(dd, e), ref.dpttrf(dd, e)
    assert want[-1] == 5
    assert got[-1] == want[-1]


@bound
def test_strided_inputs_are_read_as_values():
    n = 9
    dl, d, du, b = system(2 * n, None)
    args = (dl[1::2], d[::2], du[1::2], b[1::2])
    assert not args[1].flags.c_contiguous
    assert_same(_lapack.dgtsv(*args), ref.dgtsv(*args))
    lu = _lapack.dgttrf(*args[:3])
    assert_same(lu, ref.dgttrf(*args[:3]))
    strided = tuple(np.repeat(a, 2)[::2] for a in lu[:4]) + (lu[4],)
    assert_same(_lapack.dgttrs(*strided, args[3]),
                ref.dgttrs(*lu[:4], lu[4].astype(np.int32), args[3]))
    dd, e = (np.repeat(a, 2)[::2] for a in spd(*args[1::-1]))
    f = _lapack.dpttrf(dd, e)
    assert_same(f, ref.dpttrf(dd, e))
    ro = [a.copy() for a in f[:2]]
    for a in ro:
        a.setflags(write=False)
    assert_same(_lapack.dpttrs(*ro, args[3]), ref.dpttrs(*f[:2], args[3]))


@bound
def test_callers_arrays_are_left_as_they_were():
    dl, d, du, b = system(50, None)
    dd, e = spd(d, dl)
    inputs = (dl, d, du, b, dd, e)
    before = [a.copy() for a in inputs]
    _lapack.dgtsv(dl, d, du, b)
    lu = _lapack.dgttrf(dl, d, du)
    factors = [a.copy() for a in lu[:5]]
    _lapack.dgttrs(*lu[:5], b)
    f = _lapack.dpttrf(dd, e)
    _lapack.dpttrs(*f[:2], b)
    for a, was in zip(inputs + lu[:5], before + factors):
        assert np.array_equal(a, was)


def _calls(name, *args):
    """Call _lapack.<name> with its foreign function replaced by a
    recorder; returns the recorded calls after the exception it raises."""
    calls = []
    foreign = _lapack._F[name]
    _lapack._F[name] = lambda *a: calls.append(a)
    try:
        with pytest.raises(ValueError):
            getattr(_lapack, name)(*args)
    finally:
        _lapack._F[name] = foreign
    return calls


@bound
@pytest.mark.parametrize("case", ["short dl", "long du", "2-D d", "short rhs",
                                  "2-D rhs", "3-D rhs", "short du2",
                                  "short ipiv", "short e"])
def test_wrong_shapes_raise_before_any_foreign_call(case):
    dl, d, du, b = system(6, None)
    lu = list(_lapack.dgttrf(dl, d, du)[:5])
    dd, e = spd(d, dl)
    calls = {
        "short dl": lambda: _calls("dgtsv", dl[:-1], d, du, b)
                            + _calls("dgttrf", dl[:-1], d, du),
        "long du": lambda: _calls("dgtsv", dl, d, np.r_[du, 1.0], b)
                           + _calls("dgttrf", dl, d, np.r_[du, 1.0]),
        "2-D d": lambda: _calls("dgtsv", dl, d[None, :], du, b)
                         + _calls("dpttrf", dd[None, :], e),
        "short rhs": lambda: _calls("dgtsv", dl, d, du, b[:-1])
                             + _calls("dgttrs", *lu, b[:-1])
                             + _calls("dpttrs", dd, e, b[:-1]),
        "2-D rhs": lambda: _calls("dgtsv", dl, d, du, b[:, None])
                           + _calls("dgttrs", *lu, b[:, None])
                           + _calls("dpttrs", dd, e, b[:, None]),
        "3-D rhs": lambda: _calls("dgtsv", dl, d, du, b[:, None, None]),
        "short du2": lambda: _calls("dgttrs", *lu[:3], lu[3][:-1], lu[4], b),
        "short ipiv": lambda: _calls("dgttrs", *lu[:4], lu[4][:-1], b),
        "short e": lambda: _calls("dpttrf", dd, e[:-1])
                           + _calls("dpttrs", dd, e[:-1], b),
    }[case]()
    assert calls == []


def _fresh_copy(monkeypatch, how):
    """A second instance of the _lapack module, loaded with the bundled
    library's lookup made to fail in the way `how` names."""
    if how == "no file":
        monkeypatch.setattr(glob, "glob", lambda pattern: [])
    elif how == "no library":
        def cdll(path):
            raise OSError(f"cannot load {path}")
        monkeypatch.setattr(ctypes, "CDLL", cdll)
    else:  # a library without the routines
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    spec = importlib.util.spec_from_file_location("_lapack_fallback",
                                                  _lapack.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.undo()
    return module


@pytest.mark.parametrize("how", ["no file", "no library", "no symbols"])
def test_missing_library_falls_back_on_scipy(monkeypatch, how):
    fallback = _fresh_copy(monkeypatch, how)
    assert fallback.LIBRARY == "scipy.linalg.lapack"
    for name in _lapack.ROUTINES:
        assert getattr(fallback, name) is getattr(ref, name)
    dl, d, du, b = system(4000, None)
    assert_same(fallback.dgtsv(dl, d, du, b), _lapack.dgtsv(dl, d, du, b))
    lu = fallback.dgttrf(dl, d, du)
    assert_same(fallback.dgttrs(*lu[:5], b),
                _lapack.dgttrs(*_lapack.dgttrf(dl, d, du)[:5], b))
    dd, e = spd(d, dl)
    f = fallback.dpttrf(dd, e)
    assert_same(fallback.dpttrs(*f[:2], b),
                _lapack.dpttrs(*_lapack.dpttrf(dd, e)[:2], b))
