"""QAOA MaxCut solver (paper §3.2).

Pipeline per solve:

1. Build the fast diagonal evaluator for the graph.
2. Maximise F_p(β, γ) (Eq. 3) with the configured classical optimizer
   (COBYLA with the paper's ``rhobeg`` knob by default), exact-statevector
   or 4096-shot sampled objective.
3. Select the solution bitstring from the final state:
   ``top1`` — the highest-amplitude bitstring (the paper's choice),
   ``topk`` — best cut among the k highest amplitudes (the improvement the
   paper suggests in §3.2/§5), or
   ``sampled`` — best cut among ``shots`` sampled bitstrings (hardware-like).

:meth:`QAOASolver.steps` is the pipeline as a generator.  In lock-step, a
single-start COBYLA run on the exact statevector objective is not run but
requested: the generator yields ``(energy, x0, rhobeg, maxiter)`` once and
expects back the :class:`repro.optim.OptimizationResult` of minimising
-F_p = ``-energy.expectation(params)`` from ``x0``, as ``minimize`` would
return it.  A caller can then step many solves' runs together and evaluate
their points in one batched evolution (the QAOA² leaf stage does, with
:func:`repro.optim.cobyla_batch.cobyla_batch_steps`).
:meth:`QAOASolver.solve` runs it pointwise, with the optimizer calling its
objective itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.maxcut import CutResult, bitstring_to_assignment
from repro.optim import (
    OptimizationResult,
    drive,
    minimize,
    multi_start_spsa,
    spsa_perturbation_from_rhobeg,
)
from repro.qaoa.energy import MaxCutEnergy
from repro.qaoa.params import default_iterations, initial_parameters
from repro.quantum.simulator import DEFAULT_SHOTS
from repro.quantum.statevector import plus_state, probabilities, top_amplitudes
from repro.util.rng import RngLike, ensure_rng


@dataclass
class QAOAResult:
    """Full QAOA outcome: solution plus optimisation trace."""

    assignment: np.ndarray
    cut: float
    energy: float  # F_p at the returned parameters
    params: np.ndarray
    layers: int
    nfev: int
    history: List[float] = field(default_factory=list)
    selection: str = "top1"
    extra: dict = field(default_factory=dict)

    def as_cut_result(self) -> CutResult:
        return CutResult(self.assignment, self.cut, "qaoa", dict(self.extra))


@dataclass
class QAOASolver:
    """Configurable QAOA MaxCut solver.

    Parameters mirror the paper's experimental knobs:

    layers:
        Ansatz depth p (paper sweeps 3–8).
    optimizer / rhobeg / maxiter:
        Classical optimisation loop; ``maxiter=None`` applies the paper's
        p-linear budget (30–100).  ``rhobeg`` is the swept COBYLA parameter.
    shots:
        Shots for the sampled objective and/or sampled selection (4096).
    objective:
        ``statevector`` (exact F_p) or ``sampled`` (shot-noise F_p).
    selection / top_k:
        Bitstring extraction rule (see module docstring).
    init:
        Initial-parameter strategy (``ramp`` | ``fixed`` | ``random`` |
        ``warm`` with ``warm_start``).
    n_starts:
        Independent optimizer starts; the best-seen iterate across all
        starts wins.  Start 0 uses the ``init`` strategy (so ``n_starts=1``
        is exactly the single-start solver); extra starts draw random
        angles from a spawned child generator, leaving the main RNG stream
        untouched.  With SPSA the starts advance in lock-step and every
        iteration evaluates all ± pairs as one ``(2*n_starts, 2p)`` engine
        batch (:func:`repro.optim.multi_start.multi_start_spsa`); the
        sequential optimizers fall back to one restart per start.
    batched:
        When True (default) exact-statevector objectives hand the optimizer
        a vectorised ``(B, 2p) -> (B,)`` batch objective backed by the
        sweep engine.  Set False to force point-by-point evaluation — the
        parity/benchmark reference path.
    analytic:
        ``"auto"`` (default): with ``layers=1``, an exact-statevector
        objective is evaluated through the closed-form p=1 fast path
        (:mod:`repro.qaoa.analytic`) — O(E·n) per evaluation, no 2**n
        statevector — for both the point and batched objectives, so
        ``batched=True/False`` parity is preserved.  ``False`` forces the
        statevector objective at every depth (the cross-validation
        reference); ``True`` requires ``layers=1`` and an exact objective.
        Sampled, noisy, and p≥2 objectives always use statevectors, as
        does the final solution-selection state.
    keep_state:
        Store the final statevector in ``result.extra["final_state"]`` so
        downstream consumers (RQAOA's correlation sweep) reuse it instead
        of re-evolving the circuit.  Off by default: a 2**n complex array
        per result is too heavy to retain for bulk QAOA² sweeps.
    noise / noise_trajectories:
        Optional :class:`repro.quantum.noise.NoiseModel`; when set, the
        objective becomes the trajectory-averaged noisy ⟨H_C⟩ (NISQ
        rehearsal mode).  Solution selection still reads the noiseless
        final state, modelling error-free readout of the trained angles.
    engine:
        Optional pre-built :class:`repro.qaoa.engine.SweepEngine` for the
        graph being solved.  Shares its cached cut diagonal (skipping the
        dominant per-solve setup cost for repeated solves on one graph,
        e.g. a QAOA² sub-graph option grid) and backs the batched
        statevector objective.  Ignored if built for a different graph.
    backend:
        Statevector-evolution backend for every evolve in the solve —
        pointwise and batched objectives and the final selection state
        (``"auto"`` | a registered name | an instance; see
        :mod:`repro.quantum.backend`).  ``auto`` (default) picks the
        fused mixer kernel from 14 qubits and the bit-identical ``numpy``
        reference below.  When ``engine`` is supplied its backend wins,
        keeping the objective and the attached engine consistent.  The
        resolved name is recorded in ``result.extra["backend"]``.
    """

    layers: int = 3
    optimizer: str = "cobyla"
    rhobeg: float = 0.5
    maxiter: Optional[int] = None
    shots: int = DEFAULT_SHOTS
    objective: str = "statevector"
    selection: str = "top1"
    top_k: int = 16
    init: str = "ramp"
    n_starts: int = 1
    batched: bool = True
    analytic: object = "auto"  # "auto" | True | False
    keep_state: bool = False
    warm_start: Optional[np.ndarray] = None
    noise: Optional[object] = None  # repro.quantum.noise.NoiseModel
    noise_trajectories: int = 8
    engine: Optional[object] = None  # repro.qaoa.engine.SweepEngine
    backend: object = "auto"  # statevector backend spec (repro.quantum.backend)
    rng: RngLike = None
    max_qubits: int = 26

    def solve(self, graph: Graph) -> QAOAResult:
        # Pointwise: the optimizer calls its objective, so nothing is asked.
        return drive(self.steps(graph, lockstep=False))

    def steps(
        self, graph: Graph, *, lockstep: bool
    ) -> Generator[
        Tuple[MaxCutEnergy, np.ndarray, float, int], OptimizationResult, QAOAResult
    ]:
        """The solve as a generator (see the module docstring); yields only
        with ``lockstep``, and only for single-start COBYLA on the exact
        statevector objective: one ``(energy, x0, rhobeg, maxiter)`` request
        for the COBYLA run, answered with its result.  Every other optimizer
        and objective runs inline."""
        if graph.n_nodes > self.max_qubits:
            raise ValueError(
                f"graph has {graph.n_nodes} nodes > max_qubits={self.max_qubits}; "
                "partition it first (QAOA²) or raise the cap"
            )
        gen = ensure_rng(self.rng)
        engine = self.engine
        if engine is not None and engine.graph is not graph:
            engine = None
        # A given engine's backend wins, so the pointwise objective, the
        # batched objective and the final evolve all agree.
        energy = MaxCutEnergy(graph, engine=engine, backend=self.backend)
        backend_name = energy.backend.name
        if graph.n_edges == 0:
            assignment = np.zeros(graph.n_nodes, dtype=np.uint8)
            extra = {"backend": backend_name}
            if self.keep_state:
                extra["final_state"] = plus_state(graph.n_nodes)
            return QAOAResult(
                assignment, 0.0, 0.0, np.zeros(2 * self.layers), self.layers, 0,
                extra=extra,
            )
        maxiter = (
            self.maxiter if self.maxiter is not None else default_iterations(self.layers)
        )
        x0 = initial_parameters(
            self.layers, self.init, rng=gen, warm_start=self.warm_start
        )

        neg_fp_batch = None
        asks = False  # whether the objective is energy.expectation itself
        use_analytic = self._use_analytic()  # validates the knob up front
        if self.noise is not None and not self.noise.is_trivial():
            from repro.quantum.noise import noisy_expectation

            def neg_fp(params: np.ndarray) -> float:
                return -noisy_expectation(
                    energy, params, self.noise,
                    trajectories=self.noise_trajectories, rng=gen,
                )
        elif self.objective == "statevector":
            if use_analytic:
                # p=1 closed form: exact energies with no statevector at
                # all.  Both the point and batch objectives go through it,
                # so the batched=False parity path stays bit-identical.
                analytic = energy.engine.analytic

                def neg_fp(params: np.ndarray) -> float:
                    return -analytic.energy(params)

                if self.batched:
                    def neg_fp_batch(params_matrix: np.ndarray) -> np.ndarray:
                        return -analytic.energies(params_matrix)
            else:
                asks = True

                def neg_fp(params: np.ndarray) -> float:
                    return -energy.expectation(params)

                # Exact objectives can be evaluated in batch (SPSA's ±
                # pairs, one row per start); shot-sampled and noisy
                # objectives stay per-point because each evaluation
                # consumes generator state.
                if self.batched:
                    def neg_fp_batch(params_matrix: np.ndarray) -> np.ndarray:
                        return -energy.engine.energies(params_matrix)
        elif self.objective == "sampled":
            def neg_fp(params: np.ndarray) -> float:
                return -energy.sampled_expectation(params, self.shots, rng=gen)
        else:
            raise ValueError(f"unknown objective {self.objective!r}")

        if (
            lockstep
            and asks
            and self.n_starts == 1
            and self.optimizer.lower() == "cobyla"
        ):
            opt = yield energy, x0, self.rhobeg, maxiter
        else:
            opt = self._optimize(neg_fp, neg_fp_batch, x0, maxiter, gen)
        if engine is not None:
            # Bitwise-identical to the per-point evolve (pinned in tests),
            # but through the pooled batch kernels.
            state = engine.statevectors(np.asarray(opt.x))[0]
        else:
            state = energy.statevector(opt.x)
        assignment, cut, selection_info = self._select(graph, energy, state, gen)
        selection_info = dict(selection_info)
        selection_info["backend"] = backend_name
        if self.keep_state:
            selection_info["final_state"] = state
        return QAOAResult(
            assignment=assignment,
            cut=cut,
            energy=-opt.fun,
            params=opt.x,
            layers=self.layers,
            nfev=opt.nfev,
            history=[-h for h in opt.history],
            selection=self.selection,
            extra=selection_info,
        )

    # ------------------------------------------------------------------
    def _use_analytic(self) -> bool:
        """Whether the exact objective routes through the p=1 closed form."""
        if self.analytic is False:
            return False
        if self.analytic is True:
            if self.layers != 1:
                raise ValueError(
                    f"analytic=True requires layers=1, got layers={self.layers}"
                )
            if self.objective != "statevector":
                raise ValueError(
                    "analytic=True requires the exact 'statevector' objective"
                )
            if self.noise is not None and not self.noise.is_trivial():
                raise ValueError(
                    "analytic=True is incompatible with a noise model (the "
                    "closed form is noiseless)"
                )
            return True
        if self.analytic != "auto":
            raise ValueError(f"unknown analytic mode {self.analytic!r}")
        return self.layers == 1

    # ------------------------------------------------------------------
    def _optimize(self, neg_fp, neg_fp_batch, x0, maxiter, gen):
        """Run the configured optimizer over ``n_starts`` initial points."""
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.n_starts == 1:
            return minimize(
                neg_fp,
                x0,
                method=self.optimizer,
                rhobeg=self.rhobeg,
                maxiter=maxiter,
                rng=gen,
                batch_fun=neg_fp_batch,
            )
        # Extra starts draw from a spawned child generator so the main
        # stream — and with it SPSA's shared perturbation sequence — is
        # exactly the n_starts=1 stream: adding starts can only improve
        # the best-seen iterate.
        child = gen.spawn(1)[0]
        x0s = np.stack(
            [
                x0,
                *(
                    initial_parameters(self.layers, "random", rng=child)
                    for _ in range(self.n_starts - 1)
                ),
            ]
        )
        if self.optimizer == "spsa":
            return multi_start_spsa(
                neg_fp,
                x0s,
                maxiter=maxiter,
                c=spsa_perturbation_from_rhobeg(self.rhobeg),
                rng=gen,
                batch_fun=neg_fp_batch,
            )
        # Sequential optimizers (COBYLA / Nelder-Mead): one restart per
        # start, each with its own pre-spawned generator; best-seen result
        # wins, nfev accumulated fleet-wide.
        best = None
        nfev = 0
        for row, start_rng in zip(x0s, child.spawn(len(x0s)), strict=True):
            result = minimize(
                neg_fp,
                row,
                method=self.optimizer,
                rhobeg=self.rhobeg,
                maxiter=maxiter,
                rng=start_rng,
                batch_fun=neg_fp_batch,
            )
            nfev += result.nfev
            if best is None or result.fun < best.fun:
                best = result
        best.nfev = nfev
        return best

    # ------------------------------------------------------------------
    def _select(
        self,
        graph: Graph,
        energy: MaxCutEnergy,
        state: np.ndarray,
        gen: np.random.Generator,
    ):
        n = graph.n_nodes
        if self.selection == "top1":
            idx = int(top_amplitudes(state, 1)[0])
            assignment = bitstring_to_assignment(idx, n)
            return assignment, float(energy.diagonal[idx]), {"bitstring": idx}
        if self.selection == "topk":
            candidates = top_amplitudes(state, self.top_k)
            cuts = energy.diagonal[candidates]
            best = int(candidates[int(np.argmax(cuts))])
            return (
                bitstring_to_assignment(best, n),
                float(energy.diagonal[best]),
                {"bitstring": best, "k": int(len(candidates))},
            )
        if self.selection == "sampled":
            probs = probabilities(state)
            probs /= probs.sum()
            samples = gen.choice(len(probs), size=self.shots, p=probs)
            unique = np.unique(samples)
            cuts = energy.diagonal[unique]
            best = int(unique[int(np.argmax(cuts))])
            return (
                bitstring_to_assignment(best, n),
                float(energy.diagonal[best]),
                {"bitstring": best, "distinct_sampled": int(len(unique))},
            )
        raise ValueError(f"unknown selection {self.selection!r}")


def solve_maxcut_qaoa(graph: Graph, **kwargs) -> QAOAResult:
    """One-call convenience wrapper: ``QAOASolver(**kwargs).solve(graph)``."""
    return QAOASolver(**kwargs).solve(graph)


__all__ = ["QAOAResult", "QAOASolver", "solve_maxcut_qaoa"]
