"""Dense float64 kernel: matmul, softmax, layernorm, attention, 2-layer MLP.

Arrays are numpy float64 with rows along the last axis; matmul,
softmax_rows, layernorm and attention take stacks (W, rows, cols) as numpy
does and charge W times the count of one. Kernels check no shapes: their
makers do, and a mismatch that reaches a kernel fails in numpy.
Compute cost is tracked by an explicit per-run :class:`FlopCounter` using
two documented conventions:

* a multiply-accumulate counts as 2 FLOPs, so a product is charged 2k per
  element it computed (matmul of (m,k)@(k,n) is ``2*m*k*n``), and a bias
  add is ``m*n``,
* softmax, normalisation and elementwise nonlinearities count 5 FLOPs per
  element.

The counts are exact integers and additive over composed operations; only
relative comparisons between runs are meaningful. A kernel's counter is
:data:`NO_FLOPS`, which keeps no count, unless one is given. Any thread
may charge a counter, and a mapped item charges what the plain loop would.

:func:`one_blas_thread` holds numpy's OpenBLAS at one thread process-wide
for a block; :func:`map_on_cores` runs independent items on every
available core inside such a hold, on the calling thread and on threads
it starts for the call and joins before it returns; a call inside a
mapped item is the plain loop.
One rule cuts rows into parts (:func:`row_parts`). The encoder maps a
sublayer's parts onto cores when there are MIN_MAPPED_PARTS of them
(high-resolution pages) and runs fewer in order; training holds the
count for its whole loop and maps row blocks: :func:`mlp2_forward`'s
compute their rows of the first product and its GELU,
:func:`mlp2_backward`'s scale their rows of the GELU gradient, and
:func:`gelu` walks its own on the calling thread. An MLP forward computes
gelu' only in training, into the (h, gelu') arrays its loop allocates once.
Each row of a product is its own dot product, so a block of at least
MIN_PRODUCT_ROWS rows gives the whole product's bits; the products that
sum over rows (``x.T @ dz1``, ``h.T @ dz2``) stay one call on the calling
thread. So trained bytes depend on neither core nor BLAS thread count.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field

import numpy as np

from .rng import init_linear

ELEMWISE_FLOPS = 5

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
# elements per part of row_parts, about: 512 KB, so a part and its
# temporaries stay in L2. Serial timings of the GELU kernels are flat from
# 4k to 64k elements; on cores, larger parts mean fewer hand-offs between
# threads
_BLOCK = 65536
# rows of a product part at least, unless the whole product has fewer:
# OpenBLAS takes other kernels at M <= 18 and a GEMV at M = 1, so a
# smaller block could round its rows differently from the whole product
MIN_PRODUCT_ROWS = 64
# parts of an encoder sublayer at least, for map_on_cores to take them;
# fewer run in order on the calling thread. A 256-px page's sublayers
# have 4 parts at most (1-3 at seed 7). On a 2-vCPU VM whose second core
# comes and goes, a second thread there gained run-desk time only while
# that core was free, took about 40% more CPU time, and raised the peak
# by about 2 MB (a single malloc arena kept the 2 MB).
# A 1536-px page's sublayers have 8-154 parts (seed 7): mapped, two such
# pages run in 3.3-4.1 s against 5.0-6.6 s in order. At 1024 px,
# sublayers of 5-6 parts ran no slower mapped. A count decides, never
# the core count, so bits hold
MIN_MAPPED_PARTS = 5

_ERF_MODULE = "scipy.special._special_ufuncs"


def _scipy_dir() -> str | None:
    """scipy's package directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    locations = spec.submodule_search_locations if spec else None
    return locations[0] if locations else None


def _load_erf(scipy_dir: str | None):
    """scipy's erf ufunc, from the one extension module that defines it.

    Importing scipy.special costs every process about 0.35 s and 24 MB
    (300 modules and a second OpenBLAS) for this one ufunc. The module is
    loaded under its real name, so a later scipy.special import finds the
    same object. Where the file is missing or holds no erf ufunc (older
    scipy), the package import is the fallback.
    """
    paths = [os.path.join(scipy_dir, "special", "_special_ufuncs" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES
             ] if scipy_dir else []
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_ERF_MODULE, path)
        spec = importlib.util.spec_from_file_location(_ERF_MODULE, path,
                                                      loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
        except ImportError:
            module = None
        erf = getattr(module, "erf", None)
        if isinstance(erf, np.ufunc):
            return erf
    from scipy.special import erf
    return erf


erf = _load_erf(_scipy_dir())

# (get, set) thread-count entry points: numpy's bundled OpenBLAS, then a
# system one. The plain setter is used because in OpenBLAS 0.3.31
# openblas_set_num_threads_local changes the process-wide count as well.
_OPENBLAS_THREADS = (("scipy_openblas_get_num_threads64_",
                      "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _openblas():
    """(get, set) of numpy's OpenBLAS thread count, or None if not found.

    The library is the mapped file of this process whose path names
    OpenBLAS and that exports one of the pairs above; the lookup runs once.
    """
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREADS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, process-wide, for the block.

    The count it had is restored on leaving, also on an exception; a hold
    inside another one restores the outer hold's count of one. Where no
    OpenBLAS is found, nothing is changed.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


_inside = threading.local()     # .item: this thread runs a mapped item


def map_on_cores(fn, items) -> list:
    """[fn(x) for x in items], computed on one thread per available core.

    min(len(items), cores) threads, the caller and threads started for
    this call, take the items in order; the results come back in input
    order. After an item fails no further item is handed out, and once
    the running ones end the exception of the lowest failing index is
    raised. The call runs inside :func:`one_blas_thread`, so each item's
    products stay on its own core. With one item or one core, or no
    OpenBLAS found, this is the plain loop, and so is a call made inside
    a mapped item, whose cores the outer call keeps busy. fn must not
    write state that another item's call reads. An item runs in a copy of
    the caller's context. The call joins every thread it started before
    it returns, so none outlives it and a forked child inherits none.
    """
    items = list(items)
    if getattr(_inside, "item", False):
        return [fn(x) for x in items]
    n = min(len(items), len(os.sched_getaffinity(0)))
    if n < 2 or _openblas() is None:
        return [fn(x) for x in items]
    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    cursor = iter(range(len(items)))
    lock = threading.Lock()

    def take() -> None:
        _inside.item = True
        while True:
            with lock:
                i = None if errors else next(cursor, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as e:  # re-raised by the caller
                with lock:
                    errors[i] = e

    threads = []
    with one_blas_thread():
        try:
            for k in range(1, n):
                # a context runs on one thread at a time: each takes a copy
                t = threading.Thread(target=copy_context().run, args=(take,),
                                     daemon=True, name=f"docprune-core-{k}")
                t.start()
                threads.append(t)
            take()
        finally:
            _inside.item = False
            for t in threads:
                t.join()
    if errors:
        raise errors[min(errors)]
    return results


_TALLY = threading.Lock()      # every counter's tally changes under it


class FlopCounter:
    """Exact integer FLOP tally, bucketed by category. Per run, not global.

    Any thread may charge it, each under its own context's category.
    """

    def __init__(self):
        self.by_category: dict[str, int] = {}
        self._current = ContextVar("category", default="uncategorized")

    def add(self, n: int) -> None:
        name = self._current.get()
        with _TALLY:
            self.by_category[name] = self.by_category.get(name, 0) + int(n)

    @contextmanager
    def category(self, name: str):
        """Charge name inside the block; the innermost category wins."""
        token = self._current.set(name)
        try:
            yield self
        finally:
            self._current.reset(token)

    def total(self) -> int:
        return sum(self.by_category.values())

    def get(self, name: str) -> int:
        return self.by_category.get(name, 0)


class _NoFlops(FlopCounter):
    def add(self, n: int) -> None:
        pass


NO_FLOPS = _NoFlops()   # every kernel's default counter: it keeps no count


class SharedFlops(FlopCounter):
    """The counter of one computation that several runs share.

    Each add charges n to every run's counter, under this counter's
    current category, so each run is charged what computing alone would
    cost it. Its own tally (by_category, total, get) is their sum.
    """

    def __init__(self, counters):
        super().__init__()
        self.counters = list(counters)

    def add(self, n: int) -> None:
        name, n = self._current.get(), int(n)
        with _TALLY:
            self.by_category[name] = (self.by_category.get(name, 0)
                                      + n * len(self.counters))
            for c in self.counters:
                c.by_category[name] = c.by_category.get(name, 0) + n


def matmul(a: np.ndarray, b: np.ndarray, counter: FlopCounter = NO_FLOPS,
           out: np.ndarray | None = None) -> np.ndarray:
    """np.matmul(a, b), into out when given, charged 2k FLOPs per element
    of the product it computed (k = a.shape[-1]): exact for stacks,
    broadcast stacks and vector operands alike."""
    y = np.matmul(a, b, out=out)
    counter.add(2 * y.size * a.shape[-1])
    return y


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray,
           counter: FlopCounter = NO_FLOPS,
           out: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b, into out when given, with the bias add costed as one FLOP
    per output element."""
    y = matmul(x, w, counter, out)
    y += b
    counter.add(y.size)
    return y


def softmax_rows(a: np.ndarray, counter: FlopCounter = NO_FLOPS,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, into out (a itself allowed) when given;
    leading axes are independent rows."""
    e = np.subtract(a, a.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    counter.add(ELEMWISE_FLOPS * a.size)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def layernorm(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              counter: FlopCounter = NO_FLOPS) -> np.ndarray:
    """Each row over the last axis normalised, then gamma * row + beta."""
    # ndarray.var's own steps, on the rows centred once; the output then
    # takes over the squares' buffer
    centred = a - a.mean(axis=-1, keepdims=True)
    out = centred * centred
    var = np.add.reduce(out, axis=-1, keepdims=True) / a.shape[-1]
    counter.add(ELEMWISE_FLOPS * a.size)
    np.multiply(gamma, centred, out=out)
    out /= np.sqrt(var + 1e-5)
    out += beta
    return out


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
              counter: FlopCounter = NO_FLOPS) -> np.ndarray:
    """softmax(q.kT / sqrt(d)).v, single head; leading axes are a stack of
    independent attentions, one per leading index, as np.matmul takes them."""
    scale = 1.0 / float(q.shape[-1]) ** 0.5
    scores = matmul(q, k.swapaxes(-1, -2), counter)
    scores *= scale
    weights = softmax_rows(scores, counter, out=scores)
    return matmul(weights, v, counter)


def row_parts(n: int, rows: int, width: int) -> list[slice]:
    """n items of `rows` rows each, every row `width` elements wide, cut
    into even parts of whole items of about _BLOCK elements.

    There are two parts at least wherever each would hold MIN_PRODUCT_ROWS
    rows, and no part holds fewer unless the whole does; the parts differ
    by one item at most. The cut depends on the counts alone, never on the
    core count, so every product has one shape on any machine.
    """
    size = max(1, _BLOCK // max(1, rows * width))   # items in _BLOCK elements
    most = n // -(-MIN_PRODUCT_ROWS // rows)    # parts of enough rows at most
    k = min(max(-(-n // size), 2), most) if most else min(n, 1)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _onep(xb: np.ndarray) -> np.ndarray:
    """1 + erf(x / sqrt(2)) of one block: the erf pass GELU and gelu' share."""
    e = xb * _INV_SQRT2
    erf(e, out=e)
    e += 1.0
    return e


def _gelu_prime(xb: np.ndarray, e: np.ndarray, out: np.ndarray) -> None:
    """gelu'(x) = 0.5 * (1 + erf(x / sqrt(2))) + x / sqrt(2 pi) * exp(-x^2 / 2)

    for one block into out, with e the block's 1 + erf term.
    """
    np.multiply(0.5, e, out=out)
    t = -0.5 * xb
    t *= xb
    np.exp(t, out=t)
    u = xb * _INV_SQRT2PI
    u *= t
    out += u


def gelu(x: np.ndarray, counter: FlopCounter = NO_FLOPS,
         grad: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """Exact GELU, 0.5 * x * (1 + erf(x / sqrt(2))), walked in row blocks.

    A whole-array pass streams every temporary through memory; a block's
    temporaries stay in cache. When given, grad (shaped like x) receives
    gelu'(x) from the same erf block, and out (x itself allowed) receives
    the result. Its row_parts blocks run in order on the calling thread,
    also inside the MLP kernels' mapped blocks: the two-part floor halves
    those, and so GELU's 3 temporaries (training peaked higher without).
    """
    counter.add(ELEMWISE_FLOPS * x.size)
    h = np.empty(x.shape) if out is None else out
    for r in row_parts(len(x), 1, math.prod(x.shape[1:])):
        xb, hb = x[r], h[r]
        e = _onep(xb)
        if grad is not None:
            _gelu_prime(xb, e, grad[r])
        np.multiply(0.5, xb, out=hb)
        hb *= e
    return h


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """gelu'(x), from gelu's erf pass; training takes it from gelu(grad=)."""
    g = np.empty(x.shape)
    gelu(x, grad=g)
    return g


def sigmoid(x: np.ndarray, counter: FlopCounter = NO_FLOPS) -> np.ndarray:
    counter.add(ELEMWISE_FLOPS * x.size)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class Mlp2:
    """Two-layer MLP: linear, GELU, linear; sigmoid head when used as classifier."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "Mlp2":
        return Mlp2(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


def mlp2_init(rng, in_dim: int, hidden: int, out_dim: int) -> Mlp2:
    return Mlp2(*init_linear(rng, in_dim, hidden),
                *init_linear(rng, hidden, out_dim))


def mlp2_forward(x: np.ndarray, p: Mlp2, counter: FlopCounter = NO_FLOPS,
                 sigmoid_out: bool = False, hidden: tuple | None = None):
    """Forward pass; returns the output alone.

    hidden, given by a training loop, is a pair of (len(x), hidden width)
    arrays that the pass fills with h and gelu'(z1), which mlp2_backward
    reads; the loop allocates them once, so it faults in no fresh pages
    each epoch. Without it the pass allocates h alone and computes no
    gelu': inference reads the output only.

    The hidden layer runs in even row blocks (row_parts, at its width) on
    every core: each block computes its rows of x @ w1 + b1 and applies
    GELU to them while they are in cache. Each row of a product is its own
    dot product, and no block has fewer than MIN_PRODUCT_ROWS rows unless
    x has, so the bits are those of the whole product. h @ w2 stays whole
    on the calling thread. Each block charges its linear and gelu, under
    the caller's category.
    """
    h, d = hidden or (np.empty((len(x), p.w1.shape[1])), None)

    def block(r):
        # erf dominates training time: gelu'(z1) comes from the forward's
        # erf block, and h overwrites z1, which nothing reads again
        hb = linear(x[r], p.w1, p.b1, counter, out=h[r])
        gelu(hb, counter, grad=None if d is None else d[r], out=hb)

    map_on_cores(block, row_parts(len(h), 1, h.shape[1]))
    z2 = linear(h, p.w2, p.b2, counter)
    return sigmoid(z2, counter) if sigmoid_out else z2


def bce_loss(pred: np.ndarray, y: np.ndarray, pos_weight: float = 1.0) -> float:
    """Mean binary cross-entropy; positives weighted by pos_weight."""
    eps = 1e-12
    w = np.where(y > 0.5, pos_weight, 1.0)
    per = -(y * np.log(pred + eps) + (1.0 - y) * np.log(1.0 - pred + eps))
    return float(np.mean(w * per))


def mlp2_backward(x: np.ndarray, p: Mlp2, hidden: tuple, pred: np.ndarray,
                  y: np.ndarray, pos_weight: float = 1.0) -> dict:
    """Analytic gradients of mean weighted BCE for a sigmoid-headed Mlp2.

    x, hidden and pred are a training forward pass's input, its filled
    (h, gelu'(z1)) pair and its output. For sigmoid + BCE the head
    gradient collapses to w*(pred - y)/n, which is what makes these
    gradients finite-difference checkable to 1e-4. Returns dict with dw1,
    db1, dw2, db2. Consumes gelu'(z1): it is scaled in place into dz1, one
    row block at a time, on every core (`map_on_cores`). The products and
    the sums over rows stay whole: split, x.T @ dz1 would add its rows in
    another order.
    """
    h, dz1 = hidden
    if pred.shape != y.shape:
        raise ValueError(f"label shape mismatch: pred {pred.shape}, y {y.shape}")
    n = y.size
    w = np.where(y > 0.5, pos_weight, 1.0)
    dz2 = w * (pred - y) / n
    dw2 = h.T @ dz2
    db2 = dz2.sum(axis=0)

    def scale(r):
        dz1[r] *= dz2[r] @ p.w2.T

    map_on_cores(scale, row_parts(len(dz1), 1, dz1.shape[1]))
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    return {"dw1": dw1, "db1": db1, "dw2": dw2, "db2": db2}


@dataclass
class LossCurve:
    """Per-epoch training losses plus convenience accessors."""

    losses: list[float] = field(default_factory=list)

    def append(self, loss: float) -> None:
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss: {loss}")
        self.losses.append(float(loss))

    def __len__(self) -> int:
        return len(self.losses)

    def __getitem__(self, i):
        return self.losses[i]
