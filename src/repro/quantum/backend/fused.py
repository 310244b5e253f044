"""Fused-mixer backend: the uniform-β mixer via Walsh–Hadamard diagonalisation.

The QAOA mixer ``exp(-iβ Σ_q X_q)`` is diagonal in the Walsh–Hadamard
basis: ``H X H = Z``, so

    exp(-iβ ΣX) = H^{⊗n} · D_β · H^{⊗n},
    D_β|x⟩ = exp(-iβ·(n − 2·popcount(x)))|x⟩,

and — crucially — both ``H^{⊗n}`` and ``D_β`` are tensor products over
qubits, so the diagonalisation *factors*: for any split
``n = s₁ + s₂ + …``,

    exp(-iβ ΣX) = ⊗_j ( H^{⊗s_j} · D_β^{(s_j)} · H^{⊗s_j} / 2^{s_j} ).

The reference backend walks qubit by qubit (``s_j ≡ 1``): 3n full-array
complex ufunc passes per layer.  This backend instead splits the qubits
into ``⌈n/MAX_STAGE_QUBITS⌉`` near-equal *blocked stages* (four of 4–5
qubits at n=18): every stage is one pass over the state — a BLAS matmul
against the stage's fused ``H·diag(eigenphases)·H`` matrix, built from
eigenphase tables indexed by a cached per-stage popcount vector — so a
whole layer costs ``⌈n/5⌉`` GEMM passes instead of 3n elementwise ones.
The lowest stage (contiguous runs of ``2^s`` amplitudes) is a realified
GEMM on the interleaved re/im row view; every higher stage is one complex
GEMM over its axis of the ``(batch, outer, 2^s, inner)`` view.

Elementwise fusion: the ``1/2^s`` transform normalisations, the caller's
optional ``scale`` factor (used by :meth:`evolve_batch` to absorb the
|+⟩^n amplitude adjacent to the first cost diagonal), all fold into the
tiny stage matrices — none costs a pass over the state.  Hadamard,
popcount and ΣZ-eigenvalue tables are cached per stage size on the
backend instance (a registry singleton, so process-wide); full-size
scratch comes from the shared
:class:`~repro.quantum.backend.scratch.ScratchPool`.

Parity: ≤1e-12 against :class:`NumpyBackend` for every shape
(property-tested in ``tests/test_backends.py``); ≥1.3× on batched p≥2
evolution at n=16 (gated in ``benchmarks/bench_backends.py``).
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.quantum.backend.base import DEFAULT_CHUNK_SIZE
from repro.quantum.backend.numpy_backend import NumpyBackend
from repro.quantum.backend.scratch import ScratchPool, shared_pool
from repro.quantum.statevector import n_qubits_for_dim
from repro.util.tracing import current_trace

# Stage width cap: the mixer runs ⌈n/MAX⌉ near-equal GEMM stages.  A wider
# stage saves a pass over the state but costs 2^s complex multiply-adds
# per amplitude.  Per-call time, one row, OPENBLAS_NUM_THREADS=1, best of
# 5 rounds on a 2-core Intel Xeon VM (stage widths in brackets):
#   cap 4: n=16 [4,4,4,4] 1.05 ms  n=18 [3,3,4,4,4] 6.06 ms  n=20 [4]*5 29.7 ms
#   cap 5: n=16 [4,4,4,4] 1.10 ms  n=18 [4,4,5,5]   5.28 ms  n=20 [5]*4 34.0 ms
#   cap 6: n=16 [5,5,6]   1.45 ms  n=18 [6,6,6]     7.97 ms  n=20 [5]*4 29.7 ms
# 5 is fastest at the 18-qubit leaf cap.  Equal splits run the same code,
# so the n=20 gap between caps 5 and 6 is run-to-run noise.
MAX_STAGE_QUBITS = 5
# Cost diagonals with at most this many distinct values (and at most a
# quarter of the state dimension) get the quantised-phase gather path:
# exp() over the unique values only, then an index gather.  MaxCut
# diagonals on unweighted graphs have ≤ E+1 distinct values, so this
# turns the dominant full-size complex exponential of every cost layer
# into a table lookup.
COST_GATHER_MAX_VALUES = 4096
# Weighted diagonals (value-rich: more distinct values than the exact
# gather tolerates) are *bucketed* onto ≤COST_GATHER_MAX_VALUES uniform
# levels instead: the coarse phase is a gather, and the small residual
# d − level is corrected by exp(-iγr)'s Taylor polynomial — evaluated as
# one complex GEMM, (B, K) γ-coefficients against a cached (K, dim)
# residual-power table, so the whole correction is a single output-bound
# matmul pass instead of ~10 elementwise passes (which measure *slower*
# than the dense exp once the float temporaries fall out of cache).
# Only applied where it pays:
COST_BUCKET_MIN_DIM = 1024  # below this the dense exp is already cheap
# Taylor order: exp(-ix) through x⁷, remainder |x|⁸/8! ≤ 2.5e-13 at the
# validity bound below — inside the ≤1e-12 cross-backend parity budget.
COST_RESIDUAL_ORDER = 7
# Validity bound on |x| = |γ·residual|; calls with max|γ|·rmax beyond it
# fall back to the dense exponential (bit-identical to NumpyBackend).
COST_RESIDUAL_X_MAX = 0.1
# The fused mixer's BLAS stages *want* batch width (a wider GEMM amortises
# the stage-matrix build and keeps the kernel in its blocked regime), so
# its chunk advice budgets the two (chunk, 2**n) work buffers far above
# the elementwise cache-resident default.  16 MiB ≈ 8 rows at n=16 — the
# measured sweet spot on the n=16 batched p=2 bench (wider chunks start
# spilling the shared cache and the weighted-gather win shrinks).
FUSED_CHUNK_BUDGET_BYTES = 16 * 1024 * 1024


class FusedBackend(NumpyBackend):
    """Blocked Walsh–Hadamard-diagonalised mixer with cached eigenphase
    tables."""

    name = "fused"

    def __init__(self) -> None:
        # Per stage size s: Hadamard matrix H_s, popcount index (intp,
        # gather-ready) and ΣZ eigenvalues s − 2k.
        self._hadamards: Dict[int, np.ndarray] = {}
        self._popcounts: Dict[int, np.ndarray] = {}
        self._eigenvalues: Dict[int, np.ndarray] = {}
        # Per cost diagonal (keyed by object identity, guarded by a weak
        # reference): ("exact", values, inverse) for few-valued diagonals,
        # ("bucket", reps, idx, residual, rmax) for value-rich (weighted)
        # ones, or None when only the dense exponential applies.
        self._cost_cache: Dict[int, Tuple] = {}

    # -- cached stage tables --------------------------------------------
    def _stage_tables(self, s: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        H = self._hadamards.get(s)
        if H is None:
            H = np.ones((1, 1), dtype=np.float64)
            for _ in range(s):
                H = np.kron(H, np.array([[1.0, 1.0], [1.0, -1.0]]))
            idx = np.arange(1 << s, dtype=np.uint64)
            pc = np.zeros(1 << s, dtype=np.intp)
            for q in range(s):
                pc += ((idx >> np.uint64(q)) & np.uint64(1)).astype(np.intp)
            eig = s - 2.0 * np.arange(s + 1, dtype=np.float64)
            # Publish the dependents first; the Hadamard last (its
            # presence is the "built" flag read above).
            self._eigenvalues[s] = eig
            self._popcounts[s] = pc
            self._hadamards[s] = H
        return self._hadamards[s], self._popcounts[s], self._eigenvalues[s]

    def _stage_matrix(self, s: int, beta_arr: np.ndarray, scale: float) -> np.ndarray:
        """``scale · RX(2β)^{⊗s}`` as ``H_s · D_β · H_s / 2^s``.

        ``beta_arr`` is 0-d (one ``(2^s, 2^s)`` matrix) or ``(B,)``
        (a ``(B, 2^s, 2^s)`` stack, one per batch row).
        """
        H, pc, eig = self._stage_tables(s)
        # exp(-iβ·(s − 2·popcount)) gathered from the (s+1)-entry table.
        phases = np.exp(np.multiply.outer(-1j * beta_arr, eig))[..., pc]
        return (H * phases[..., None, :]) @ H * (scale / (1 << s))

    @staticmethod
    def _realify(matrices: np.ndarray) -> np.ndarray:
        """Real action of a complex matrix on interleaved re/im *row*
        vectors: ``v_real @ R == realify(M v_complex)``."""
        mt = np.swapaxes(matrices, -1, -2)
        shape = (*matrices.shape[:-2], 2 * matrices.shape[-2], 2 * matrices.shape[-1])
        out = np.empty(shape, dtype=np.float64)
        out[..., 0::2, 0::2] = mt.real
        out[..., 0::2, 1::2] = mt.imag
        out[..., 1::2, 0::2] = -mt.imag
        out[..., 1::2, 1::2] = mt.real
        return out

    # -- quantised cost layer --------------------------------------------
    def _cost_table(self, diagonal: np.ndarray) -> Optional[Tuple]:
        """The diagonal's gather decomposition, cached per array identity.

        ``("exact", values, inverse)`` — few distinct values (unweighted
        graphs): ``values[inverse]`` reproduces the diagonal *exactly*,
        so gathered phases are bit-identical to the dense exponential.

        ``("bucket", reps, idx, rpow, rmax)`` — value-rich (weighted)
        diagonals bucketed onto ≤``COST_GATHER_MAX_VALUES`` uniform
        levels: ``reps[idx] + r`` reproduces the diagonal to one ulp with
        ``|r| ≤ rmax`` (about half the level step), small enough that the
        phase correction is a short Taylor polynomial in ``γ·r`` — whose
        residual-power table ``rpow[k] = r**k`` (complex, GEMM-ready) is
        precomputed here.  Built only where the correction pass pays
        (``COST_BUCKET_MIN_DIM``, levels ≪ dim).

        ``None`` — dense exponential only.  A dead weak reference means
        the id was recycled and the entry is rebuilt.
        """
        key = id(diagonal)
        rec = self._cost_cache.get(key)
        if rec is not None and rec[0]() is diagonal:
            return rec[1]
        try:
            ref = weakref.ref(diagonal, lambda _, k=key: self._cost_cache.pop(k, None))
        except TypeError:  # non-weakref-able duck array
            return None
        dim = diagonal.size
        values, inverse = np.unique(diagonal, return_inverse=True)
        inverse = np.ascontiguousarray(inverse.reshape(-1), dtype=np.intp)
        if len(values) <= min(COST_GATHER_MAX_VALUES, dim // 4):
            desc: Optional[Tuple] = ("exact", values, inverse)
        else:
            desc = self._bucket_table(values, inverse, dim)
        self._cost_cache[key] = (ref, desc)
        return desc

    @staticmethod
    def _bucket_table(
        values: np.ndarray, inverse: np.ndarray, dim: int
    ) -> Optional[Tuple]:
        """Uniform-level bucketing of a value-rich diagonal, or ``None``
        when the residual pass would not pay (small state, degenerate
        range, or too many levels relative to the dimension)."""
        levels = min(COST_GATHER_MAX_VALUES, dim // 4)
        lo, hi = float(values[0]), float(values[-1])
        if (
            dim < COST_BUCKET_MIN_DIM
            or levels < 2
            or not np.isfinite(hi - lo)
            or hi <= lo
        ):
            return None
        step = (hi - lo) / (levels - 1)
        reps = lo + step * np.arange(levels)
        which = np.clip(np.rint((values - lo) / step), 0, levels - 1).astype(np.intp)
        resid_per_value = values - reps[which]
        idx = np.ascontiguousarray(which[inverse])
        residual = resid_per_value[inverse]
        rmax = float(np.abs(resid_per_value).max())
        # Residual-power table for the Taylor GEMM: rpow[k] = residual**k,
        # stored complex so the per-call matmul is a plain zgemm with no
        # upcast copy.  (ORDER+1)·dim·16 bytes — 8 MiB at n=16, cached for
        # the diagonal's lifetime via the weak reference above.
        powers = np.empty((COST_RESIDUAL_ORDER + 1, dim), dtype=np.float64)
        powers[0] = 1.0
        for k in range(1, COST_RESIDUAL_ORDER + 1):
            np.multiply(powers[k - 1], residual, out=powers[k])
        rpow = powers.astype(np.complex128)
        return ("bucket", reps, idx, rpow, rmax)

    @staticmethod
    def _residual_coeffs(gam: np.ndarray) -> np.ndarray:
        """Per-row Taylor coefficients of ``exp(-iγ·r)``:
        ``P[b, k] = (-iγ_b)**k / k!`` — the ``(B, K)`` left factor of the
        correction GEMM against the cached residual-power table."""
        coeffs = np.empty((gam.size, COST_RESIDUAL_ORDER + 1), dtype=np.complex128)
        coeffs[:, 0] = 1.0
        base = -1j * gam
        for k in range(1, COST_RESIDUAL_ORDER + 1):
            np.multiply(coeffs[:, k - 1], base, out=coeffs[:, k])
            coeffs[:, k] /= k
        return coeffs

    def _residual_rotation(
        self, gam: np.ndarray, rpow: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``exp(-iγ_b·r)`` per row via the Taylor GEMM, written to ``out``.

        A one-row matmul dispatches to BLAS's vector kernel, whose
        accumulation over the Taylor axis differs from the batched GEMM's
        at ~1e-15 — enough to break the chunk-width invariance the engine
        pins (``TestChunkPolicy``).  Single rows are therefore evaluated
        as a duplicated two-row GEMM, keeping every batch width on the
        same kernel.
        """
        coeffs = self._residual_coeffs(gam)
        if gam.size == 1:
            out[...] = np.matmul(coeffs[[0, 0]], rpow)[:1]
            return out
        return np.matmul(coeffs, rpow, out=out)

    def apply_cost_layer(
        self,
        states: np.ndarray,
        diagonal: np.ndarray,
        gammas,
        *,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        table = self._cost_table(diagonal)
        if table is None:
            return super().apply_cost_layer(states, diagonal, gammas, scratch=scratch)
        gam = np.asarray(gammas, dtype=np.float64)
        if states.ndim == 1:
            if gam.ndim != 0:
                raise ValueError("per-row gammas require a batched (B, dim) state")
            if diagonal.shape != states.shape:
                raise ValueError("diagonal length mismatch")
        elif states.ndim != 2 or gam.shape != (states.shape[0],):
            raise ValueError(
                f"expected states (B, dim) and gammas (B,), got "
                f"{states.shape} / {gam.shape}"
            )
        elif diagonal.shape != states.shape[-1:]:
            raise ValueError("diagonal length mismatch")
        if table[0] == "bucket":
            _, reps, idx, rpow, rmax = table
            xmax = float(np.abs(gam).max()) * rmax if gam.size else 0.0
            if xmax > COST_RESIDUAL_X_MAX:
                # γ too large for the polynomial budget: dense exponential
                # (same expression as NumpyBackend, bit-identical to it).
                return super().apply_cost_layer(
                    states, diagonal, gammas, scratch=scratch
                )
            batched = states if states.ndim == 2 else states.reshape(1, -1)
            if (
                scratch is not None
                and scratch.shape == states.shape
                and scratch.dtype == states.dtype
            ):
                buf = scratch.reshape(batched.shape)
            else:
                buf = np.empty_like(batched)
            gam1 = gam.reshape(-1)
            # Residual rotation first (GEMM into the scratch), then the
            # coarse gathered phase reusing the same buffer.
            self._residual_rotation(gam1, rpow, buf)
            batched *= buf
            coarse = np.exp(np.multiply.outer(-1j * gam1, reps))
            np.take(coarse, idx, axis=1, out=buf)
            batched *= buf
            return states
        _, values, inverse = table
        if states.ndim == 1:
            states *= np.take(np.exp(-1j * gam * values), inverse)
            return states
        phase = np.exp(np.multiply.outer(-1j * gam, values))
        if (
            scratch is not None
            and scratch.shape == states.shape
            and scratch.dtype == states.dtype
        ):
            np.take(phase, inverse, axis=1, out=scratch)
            states *= scratch
        else:
            states *= np.take(phase, inverse, axis=1)
        return states

    # -- chunk advice -----------------------------------------------------
    def preferred_chunk_size(
        self,
        n_qubits: int,
        *,
        batch: Optional[int] = None,
        layers: Optional[int] = None,
    ) -> int:
        """Wide chunks: the blocked GEMM stages amortise their stage-matrix
        builds over the batch, so starve them of width (the elementwise
        cache budget yields 1-row chunks at n=16) and the fused win
        evaporates.  Budgeted by ``FUSED_CHUNK_BUDGET_BYTES`` over the two
        (chunk, 2**n) work buffers, capped at ``DEFAULT_CHUNK_SIZE`` rows
        and the sweep batch when known."""
        row_bytes = 2 * (1 << n_qubits) * 16
        advised = max(1, min(DEFAULT_CHUNK_SIZE, FUSED_CHUNK_BUDGET_BYTES // row_bytes))
        if batch is not None:
            advised = max(1, min(advised, batch))
        return advised

    # -- the fused mixer -------------------------------------------------
    def apply_mixer_layer(
        self,
        states: np.ndarray,
        betas,
        *,
        scratch: Optional[np.ndarray] = None,
        scale: Optional[float] = None,
    ) -> np.ndarray:
        """Blocked-stage mixer; ``scale`` folds an extra scalar into the
        first stage matrix (no dedicated pass — see :meth:`evolve_batch`)."""
        n = n_qubits_for_dim(states.shape[-1])
        beta_arr = np.asarray(betas, dtype=np.float64)
        if states.ndim == 1:
            if beta_arr.ndim != 0:
                raise ValueError("per-row betas require a batched (B, dim) state")
        elif states.ndim == 2:
            if beta_arr.ndim == 1 and beta_arr.shape != (states.shape[0],):
                raise ValueError(
                    f"betas shape {beta_arr.shape} != batch ({states.shape[0]},)"
                )
            if beta_arr.ndim > 1:
                raise ValueError("betas must be scalar or a (B,) vector")
        else:
            raise ValueError(f"state must be 1-D or 2-D, got ndim={states.ndim}")
        if not states.flags.c_contiguous:
            raise ValueError("states must be C-contiguous for blocked stages")
        work = states if states.ndim == 2 else states.reshape(1, -1)
        if scratch is None or scratch.shape != states.shape or scratch.dtype != states.dtype:
            scratch = np.empty_like(states)
        src, dst = work, scratch.reshape(work.shape)
        batch = work.shape[0]
        factor = 1.0 if scale is None else float(scale)
        # ⌈n/MAX⌉ near-equal stages, narrowest first; a dim-1 state still
        # gets one (width-0) stage so ``scale`` applies.
        n_stages = max(1, -(-n // MAX_STAGE_QUBITS))
        low = 0
        for j in range(n_stages):
            s = (n + j) // n_stages
            if j == 0:
                # Lowest stage: realified GEMM on the interleaved re/im
                # row view (unit-stride rows of 2^s complex amplitudes).
                mat = self._realify(self._stage_matrix(s, beta_arr, factor))
                xv = src.view(np.float64).reshape(batch, -1, (1 << s) * 2)
                np.matmul(xv, mat, out=dst.view(np.float64).reshape(xv.shape))
            else:
                # Higher stage: one GEMM over its axis of the
                # (batch, outer, 2^s, inner) view.
                mat = self._stage_matrix(s, beta_arr, 1.0)
                if mat.ndim == 3:
                    mat = mat[:, None]
                xv = src.reshape(batch, -1, 1 << s, 1 << low)
                np.matmul(mat, xv, out=dst.reshape(xv.shape))
            low += s
            src, dst = dst, src
        if src is not work:
            work[...] = src
        return states

    # -- layer-fused batched evolution ------------------------------------
    def evolve_batch(
        self,
        diagonal: np.ndarray,
        params_matrix: np.ndarray,
        *,
        pool: Optional[ScratchPool] = None,
    ) -> np.ndarray:
        """Batched evolution with the adjacent state-prep/cost fusion.

        |+⟩^n is uniform, so ``ψ_0 = exp(-iγ_1 D)|+⟩`` is the first cost
        exponential written straight into the state buffer — no fill
        pass — with the ``1/√dim`` amplitude folded into the first
        mixer's low stage matrix via ``scale`` (no normalisation pass
        either).  Later layers run the cost-phase multiply plus the
        blocked mixer, sharing one pooled scratch.
        """
        mat = self._params_matrix(params_matrix)
        n = n_qubits_for_dim(len(diagonal))
        m, p = mat.shape[0], mat.shape[1] // 2
        dim = 1 << n
        pool = pool if pool is not None else shared_pool()
        with current_trace().span(
            "backend-evolve", backend=self.name, rows=m, layers=p
        ):
            states = pool.take("states", (m, dim))
            scratch = pool.take("phases", (m, dim))
            table = self._cost_table(diagonal)
            gam0 = mat[:, 0]
            if table is not None and table[0] == "bucket":
                _, reps, idx, rpow, rmax = table
                xmax = float(np.abs(gam0).max()) * rmax if gam0.size else 0.0
                if xmax > COST_RESIDUAL_X_MAX:
                    table = None  # dense exponential for this γ range
                else:
                    coarse = np.exp(np.multiply.outer(-1j * gam0, reps))
                    np.take(coarse, idx, axis=1, out=states)
                    self._residual_rotation(gam0, rpow, scratch)
                    states *= scratch
            if table is None:
                np.multiply.outer(-1j * gam0, diagonal, out=states)
                np.exp(states, out=states)
            elif table[0] == "exact":
                _, values, inverse = table
                phase = np.exp(np.multiply.outer(-1j * gam0, values))
                np.take(phase, inverse, axis=1, out=states)
            self.apply_mixer_layer(
                states, mat[:, p], scratch=scratch, scale=1.0 / np.sqrt(dim)
            )
            for layer in range(1, p):
                self.apply_cost_layer(states, diagonal, mat[:, layer], scratch=scratch)
                self.apply_mixer_layer(states, mat[:, p + layer], scratch=scratch)
            return states


__all__ = [
    "COST_BUCKET_MIN_DIM",
    "COST_GATHER_MAX_VALUES",
    "COST_RESIDUAL_ORDER",
    "COST_RESIDUAL_X_MAX",
    "FUSED_CHUNK_BUDGET_BYTES",
    "FusedBackend",
    "MAX_STAGE_QUBITS",
]
