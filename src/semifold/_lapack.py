"""The five tridiagonal LAPACK routines of the package (?gtsv, ?gttrf,
?gttrs, ?pttrf, ?pttrs), with scipy.linalg.lapack's arguments and return
tuples.  A right-hand side is one column: a 1-D array of length n.

numpy's wheels bundle an ILP64 OpenBLAS with LAPACK
(numpy.libs/libscipy_openblas64_*).  These routines call it through
ctypes, so that a cold start imports no SciPy, which costs about 0.3 s.
Where that library or one of its symbols is missing (numpy built on
Accelerate, MKL or a distribution's BLAS), they are scipy.linalg.lapack's
own.  LIBRARY names the one in use: the bundled library's OpenBLAS
configuration string, or "scipy.linalg.lapack".

LAPACK overwrites some of its arguments, so each routine hands it copies
of those, and it checks every length first: LAPACK trusts n, and a band
or right-hand side shorter than n would be read or written past its end.
Addresses come from ctypes.c_char.from_buffer, several times cheaper
than ndarray.ctypes on a solve that takes tens of microseconds.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# each routine's pointer arguments; ?gttrs also takes the hidden length
# of its character argument
ROUTINES = {"dgtsv": 8, "dgttrf": 7, "dgttrs": 11, "dpttrf": 4, "dpttrs": 7}


def _bundled():
    """(configuration string, {routine: foreign function}) of numpy's
    bundled OpenBLAS, or None when it or one of the routines is missing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
            funcs = {name: getattr(lib, f"scipy_{name}_64_") for name in ROUTINES}
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        config.restype = ctypes.c_char_p
        for name, func in funcs.items():
            func.argtypes = ((ctypes.c_void_p,) * ROUTINES[name]
                             + (ctypes.c_size_t,) * (name == "dgttrs"))
            func.restype = None
        return config().decode("ascii", "replace"), funcs
    return None


def _copy(a) -> np.ndarray:
    """A contiguous float64 copy of the band `a`, which LAPACK overwrites."""
    return np.array(a, np.float64)


def _operand(a, dtype=np.float64) -> np.ndarray:
    """The band `a` as LAPACK only reads it: contiguous and writable
    (from_buffer requires both), copied only when it is not."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return a if a.flags.writeable else a.copy()


def _bad(n: int, **bands) -> ValueError:
    """The error for bands whose shapes are not those of order n."""
    shapes = ", ".join(f"{name} {a.shape}" for name, a in bands.items())
    return ValueError(f"band shapes {shapes} do not fit order n = {n}")


def _rhs(b, n: int) -> np.ndarray:
    """A copy of the right-hand side `b`, one column of length n, for
    LAPACK to overwrite with the solution."""
    b = np.asarray(b)
    if b.shape != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, need ({n},)")
    return _copy(b)


_addr = ctypes.addressof
_char = ctypes.c_char.from_buffer
_i64 = ctypes.c_int64
_ref = ctypes.byref


def _p(a: np.ndarray):
    """The address of `a`'s data, or None (a NULL pointer) when `a` is
    empty: from_buffer refuses an empty buffer, and LAPACK reads no
    element of a band of length 0."""
    return _addr(_char(a)) if a.size else None


_BOUND = _bundled()

if _BOUND is None:
    import scipy.linalg.lapack as _scipy_lapack

    LIBRARY = "scipy.linalg.lapack"
    dgtsv, dgttrf, dgttrs, dpttrf, dpttrs = (getattr(_scipy_lapack, name)
                                             for name in ROUTINES)
else:
    LIBRARY, _F = _BOUND

    def dgtsv(dl, d, du, b):
        """Solve a tridiagonal system; (du2, d, du, x, info)."""
        dl, d, du = _copy(dl), _copy(d), _copy(du)
        n = d.size
        if d.ndim != 1 or dl.shape != (n - 1,) or du.shape != (n - 1,):
            raise _bad(n, dl=dl, d=d, du=du)
        x = _rhs(b, n)
        info = _i64()
        _F["dgtsv"](_ref(_i64(n)), _ref(_i64(1)), _p(dl), _p(d), _p(du),
                    _p(x), _ref(_i64(max(n, 1))), _ref(info))
        return dl, d, du, x, info.value

    def dgttrf(dl, d, du):
        """LU factors of a tridiagonal matrix; (dl, d, du, du2, ipiv, info)."""
        dl, d, du = _copy(dl), _copy(d), _copy(du)
        n = d.size
        if d.ndim != 1 or dl.shape != (n - 1,) or du.shape != (n - 1,):
            raise _bad(n, dl=dl, d=d, du=du)
        du2 = np.empty(max(n - 2, 0))
        ipiv = np.empty(n, np.int64)
        info = _i64()
        _F["dgttrf"](_ref(_i64(n)), _p(dl), _p(d), _p(du), _p(du2), _p(ipiv),
                     _ref(info))
        return dl, d, du, du2, ipiv, info.value

    def dgttrs(dl, d, du, du2, ipiv, b):
        """Solve with dgttrf's factors, which it only reads; (x, info)."""
        dl, d, du, du2 = _operand(dl), _operand(d), _operand(du), _operand(du2)
        ipiv = _operand(ipiv, np.int64)
        n = d.size
        if (d.ndim != 1 or dl.shape != (n - 1,) or du.shape != (n - 1,)
                or du2.shape != (max(n - 2, 0),) or ipiv.shape != d.shape):
            raise _bad(n, dl=dl, d=d, du=du, du2=du2, ipiv=ipiv)
        x = _rhs(b, n)
        info = _i64()
        _F["dgttrs"](b"N", _ref(_i64(n)), _ref(_i64(1)), _p(dl), _p(d),
                     _p(du), _p(du2), _p(ipiv), _p(x), _ref(_i64(max(n, 1))),
                     _ref(info), 1)
        return x, info.value

    def dpttrf(d, e):
        """L D L^T factors of a symmetric tridiagonal matrix; (d, e, info),
        info > 0 when the matrix is not positive definite."""
        d, e = _copy(d), _copy(e)
        n = d.size
        if d.ndim != 1 or e.shape != (n - 1,):
            raise _bad(n, d=d, e=e)
        info = _i64()
        _F["dpttrf"](_ref(_i64(n)), _p(d), _p(e), _ref(info))
        return d, e, info.value

    def dpttrs(d, e, b):
        """Solve with dpttrf's factors, which it only reads; (x, info)."""
        d, e = _operand(d), _operand(e)
        n = d.size
        if d.ndim != 1 or e.shape != (n - 1,):
            raise _bad(n, d=d, e=e)
        x = _rhs(b, n)
        info = _i64()
        _F["dpttrs"](_ref(_i64(n)), _ref(_i64(1)), _p(d), _p(e), _p(x),
                     _ref(_i64(max(n, 1))), _ref(info))
        return x, info.value
