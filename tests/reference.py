"""References that check the package and share no code with what they check.

Each is written from the definition it checks, state by state or entry by
entry, with no call into the routine under test:

* collapse_state, with project: rule n3_3 on one state, as np.vdot of the
  state and of the collapsed state give its square moduli; the walk's
  collapses (engine.EpochRunner._regroup) must hold its floats.
* to_coo, adjoint_entries and full_hamiltonian: a block's entries as a
  scipy COO matrix, its adjoint's entries, and H = own blocks + every gap's
  feed + feed adjoint, summed block by block.
* four_rule_generator: the four-rule form's generator as edits of H, whole
  blocks kept or dropped as the dynamics module docstring states them; the
  three-rule assemble_generator must hold its entries and gaps.
* fd_current_check: the launch currents as a central difference of the
  launch sector's square modulus over two RK4 steps.
* expm_rows: rows U^k psi0, U = expm(-i G h), the exact evolution that a
  linear mode's no-hit profile approximates.
* gauge_reference: the compensated no-hit profile from its reduced system.
* small_models: a Hypothesis strategy of small valid models.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp
from hypothesis import strategies as st

from gapflow.dynamics import CurrentVector, step
from gapflow.engine import NORM_POLICIES, PRESERVE_TOTAL
from gapflow.errors import CollapseOnEmptyError, GapflowError
from gapflow.model import (ACTIVE, LAUNCH, REALIZED, ZEROED, Component, Gap, GapSemantics,
                           HamiltonianPartition, OperatorBlock, ScenarioModel, validate_model)


# ---------------------------------------------------------------------------
# Collapse (rule n3_3)
# ---------------------------------------------------------------------------

def project(state: np.ndarray, comp_id: int, model: ScenarioModel) -> np.ndarray:
    """Zero the amplitudes outside ``comp_id``'s basis indices."""
    idx = model.indices_of(comp_id)
    out = np.zeros_like(np.asarray(state, dtype=np.complex128))
    out[idx] = state[idx]
    return out


def collapse_state(psi: np.ndarray, chosen: int, model: ScenarioModel,
                   policy: str = PRESERVE_TOTAL) -> np.ndarray:
    """``psi`` with everything outside ``chosen`` zeroed.

    Under preserve_total (default) the surviving amplitudes are rescaled so
    the total square modulus is unchanged; under raw they are kept verbatim.
    """
    if policy not in NORM_POLICIES:
        raise GapflowError(f"unknown norm policy {policy!r}")
    s_pre = float(np.vdot(psi, psi).real)
    collapsed = project(psi, chosen, model)
    s_chosen = float(np.vdot(collapsed, collapsed).real)
    if s_chosen <= 0.0:
        raise CollapseOnEmptyError(
            f"component {chosen} has zero amplitude at collapse time")
    if policy == PRESERVE_TOTAL:
        collapsed *= math.sqrt(s_pre / s_chosen)
    return collapsed


# ---------------------------------------------------------------------------
# Operators, entry by entry
# ---------------------------------------------------------------------------

def to_coo(block: OperatorBlock) -> sp.coo_matrix:
    """A block's entries as a dim x dim COO matrix."""
    if not block.entries:
        return sp.coo_matrix((block.dim, block.dim), dtype=np.complex128)
    rows, cols, vals = zip(*block.entries)
    return sp.coo_matrix((np.array(vals, dtype=np.complex128), (rows, cols)),
                         shape=(block.dim, block.dim))


def adjoint_entries(block: OperatorBlock) -> tuple[tuple[int, int, complex], ...]:
    """The entries of the block's adjoint, in the block's entry order."""
    return tuple((c, r, v.conjugate()) for r, c, v in block.entries)


def full_hamiltonian(model: ScenarioModel) -> sp.csr_matrix:
    """H = sum of own blocks + sum over gaps of (feed + feed-adjoint)."""
    total = sp.coo_matrix((model.dim, model.dim), dtype=np.complex128)
    for block in model.hamiltonian.own.values():
        total = total + to_coo(block)
    for gap in model.gaps:
        feed = gap.interaction
        total = total + to_coo(feed)
        total = total + to_coo(OperatorBlock(model.dim, adjoint_entries(feed)))
    return total.tocsr()


def four_rule_generator(model: ScenarioModel, statuses: dict[int, str], mode: GapSemantics,
                        freeze_suspended: bool) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The four-rule form's generator at ``statuses``, built from H =
    full_hamiltonian(model) by the edits the dynamics module docstring
    states, and the (low, high) pairs of the gaps it keeps, in model
    order. Each block of H, the rows of one component and the columns of
    another, is kept whole or dropped whole:

    * the own block of an active or realized component, and of a launch
      component when the freeze is suspended (the sources);
    * a gap's feed block (high, low) where its high side is launch and its
      low side a source;
    * that gap's adjoint block (low, high) in hermitian mode only;
    * in hermitian mode with the freeze suspended, the feed and adjoint
      blocks of every gap between two components that are not zeroed.
    """
    hermitian = mode is GapSemantics.HERMITIAN_TRUNCATED
    sources = (ACTIVE, REALIZED, LAUNCH) if freeze_suspended else (ACTIVE, REALIZED)
    blocks = [(c, c) for c in model.hamiltonian.own if statuses[c] in sources]
    pairs = []
    for gap in model.gaps:
        if hermitian and freeze_suspended:
            kept = ZEROED not in (statuses[gap.low], statuses[gap.high])
        else:
            kept = statuses[gap.high] == LAUNCH and statuses[gap.low] in sources
        if kept:
            pairs.append((gap.low, gap.high))
            blocks.append((gap.high, gap.low))
            if hermitian:
                blocks.append((gap.low, gap.high))
    idx = model.index_arrays
    keep = np.zeros((model.dim, model.dim), dtype=bool)
    for rows, cols in blocks:
        keep[np.ix_(idx[rows], idx[cols])] = True
    return np.where(keep, full_hamiltonian(model).toarray(), 0.0), pairs


def held(op) -> np.ndarray:
    """An operator, dense array or CSR, as an array."""
    return op.toarray() if sp.issparse(op) else op


# ---------------------------------------------------------------------------
# Currents and evolution
# ---------------------------------------------------------------------------

def fd_current_check(state: np.ndarray, gen, dt_probe: float = 1e-6) -> CurrentVector:
    """Central-difference oracle for the analytic launch currents: per
    launch component, the change of its square modulus over one RK4 step of
    dt_probe forward and one backward, divided by 2 dt_probe."""
    psi = np.asarray(state, dtype=np.complex128)
    fwd = step(psi, gen, dt_probe)
    bwd = step(psi, gen, -dt_probe)
    J = np.empty(len(gen.launch_ids))
    for k, comp_id in enumerate(gen.launch_ids):
        idx = gen.launch_indices[comp_id]
        s_fwd = float(np.vdot(fwd[idx], fwd[idx]).real)
        s_bwd = float(np.vdot(bwd[idx], bwd[idx]).real)
        J[k] = (s_fwd - s_bwd) / (2.0 * dt_probe)
    return CurrentVector(ids=gen.launch_ids, J=J)


def expm_rows(op, start: np.ndarray, h: float, count: int) -> np.ndarray:
    """``count`` rows U^k start, k = 0, 1, ..., with U = expm(-i G h) for the
    generator G held in ``op`` (dense or CSR): the exact evolution of a
    linear mode, each row one exact step after the row before it."""
    u = scipy.linalg.expm(-1j * held(op) * h)
    rows = [np.asarray(start, dtype=np.complex128)]
    for _ in range(count - 1):
        rows.append(u @ rows[-1])
    return np.array(rows)


def gauge_reference(model: ScenarioModel, times: np.ndarray) -> np.ndarray:
    """The compensated no-hit profile at ``times`` from its reduced system,
    with no call into the engine. In the sink modes nothing feeds a source,
    and each loss term is a real multiple of its source's own vector, so a
    source c evolves as x_c(t) = lambda_c(t) exp(-i A_c t) x_c(0), with A_c
    its own block and lambda_c real, lambda_c' = -(sum_gaps j_gap / 2 s_c)
    lambda_c; the launch sector y (frozen under nrules3) is fed through
    y' = -i sum_c F_c x_c. The reduced system is integrated by DOP853."""
    statuses, idx = model.initial_statuses(), model.index_arrays
    sources = [c.id for c in model.components if statuses[c.id] in (ACTIVE, REALIZED)]
    launch = np.concatenate([idx[c.id] for c in model.components if statuses[c.id] == LAUNCH])
    psi0 = np.asarray(model.psi0)
    own = {c: to_coo(model.hamiltonian.own[c]).toarray()[np.ix_(idx[c], idx[c])]
           if c in model.hamiltonian.own else np.zeros((len(idx[c]),) * 2) for c in sources}
    eig = {c: np.linalg.eigh(a) for c, a in own.items()}
    s0 = {c: float(np.vdot(psi0[idx[c]], psi0[idx[c]]).real) for c in sources}
    feeds = [(sources.index(g.low), to_coo(g.interaction).toarray()[np.ix_(launch, idx[g.low])])
             for g in model.gaps if g.low in sources and statuses[g.high] == LAUNCH]

    def unitary_part(t):
        """exp(-i A_c t) x_c(0) per source."""
        return [v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0[idx[c]]))
                for c, (w, v) in eig.items()]

    def rhs(t, z):
        lam, y, u = z[:len(sources)].real, z[len(sources):], unitary_part(t)
        dlam, dy = np.zeros(len(sources), dtype=complex), np.zeros(len(y), dtype=complex)
        for k, f in feeds:
            fed = f @ u[k]
            dy -= 1j * lam[k] * fed
            # j_gap / (2 s_c) lambda_c, with j_gap = 2 lambda_c Im<y|F u_c>
            # and s_c = lambda_c^2 s_c(0).
            dlam[k] -= np.vdot(y, fed).imag / s0[sources[k]] if s0[sources[k]] else 0.0
        return np.concatenate([dlam, dy])

    z0 = np.concatenate([np.ones(len(sources), dtype=complex), psi0[launch]])
    sol = scipy.integrate.solve_ivp(rhs, (0.0, times[-1]), z0, method="DOP853",
                                    rtol=1e-13, atol=1e-15, t_eval=times)
    assert sol.success
    out = np.zeros((len(times), model.dim), dtype=complex)
    for j, t in enumerate(times):
        for k, (c, u) in enumerate(zip(sources, unitary_part(t))):
            out[j, idx[c]] = sol.y[k, j].real * u
        out[j, launch] = sol.y[len(sources):, j]
    return out


# ---------------------------------------------------------------------------
# Generated models
# ---------------------------------------------------------------------------

_couplings = st.floats(0.2, 1.5) | st.floats(-1.5, -0.2)


@st.composite
def _complex(draw):
    return complex(draw(_couplings), draw(st.floats(-1.0, 1.0)))


@st.composite
def _feed(draw, dim, high, low):
    """Feed entries (r, c, v), r in ``high``, c in ``low``: a random subset
    of the pairs, the first pair always in."""
    pairs = [(r, c) for r in high for c in low]
    keep = [True] + [draw(st.booleans()) for _ in pairs[1:]]
    return OperatorBlock(dim, tuple((r, c, draw(_complex())) for (r, c), k in zip(pairs, keep)
                                    if k))


@st.composite
def _own(draw, dim, indices):
    """A Hermitian own block on ``indices``: a real diagonal and random
    upper entries with their conjugates."""
    entries = []
    for i, r in enumerate(indices):
        entries.append((r, r, complex(draw(st.floats(-1.0, 1.0)))))
        for c in indices[i + 1:]:
            v = draw(_complex())
            entries += [(r, c, v), (c, r, v.conjugate())]
    return OperatorBlock(dim, tuple(entries))


@st.composite
def small_models(draw) -> ScenarioModel:
    """A small valid model: one active source of 1-2 basis indices feeding
    2-4 launch components of 1-3 indices, on shuffled basis indices. The
    first two launch components are wider than one index; the first
    sources a chained gap and the second none, and each of the others
    sources one or not, into an active placeholder of 1-2 indices. The
    source carries an own block, and each launch component may."""
    launch = [draw(st.integers(2, 3)), draw(st.integers(2, 3))]
    launch += draw(st.lists(st.integers(1, 3), max_size=2))
    chains = [True, False] + [draw(st.booleans()) for _ in launch[2:]]
    sizes = [draw(st.integers(1, 2))] + launch + [draw(st.integers(1, 2)) for c in chains if c]
    dim = sum(sizes)
    order = draw(st.permutations(range(dim)))
    cuts = np.cumsum([0] + sizes)
    basis = [tuple(sorted(order[a:b])) for a, b in zip(cuts, cuts[1:])]
    n_launch = len(launch)
    components = [Component(0, basis[0], 0, ACTIVE)]
    components += [Component(m, basis[m], 1, LAUNCH) for m in range(1, n_launch + 1)]
    gaps = [Gap(0, m, True, draw(_feed(dim, basis[m], basis[0])))
            for m in range(1, n_launch + 1)]
    placeholder = n_launch + 1
    for m, chained in zip(range(1, n_launch + 1), chains):
        if chained:
            components.append(Component(placeholder, basis[placeholder], 2, ACTIVE))
            gaps.append(Gap(m, placeholder, True,
                            draw(_feed(dim, basis[placeholder], basis[m]))))
            placeholder += 1
    own = {0: draw(_own(dim, basis[0]))}
    own.update({m: draw(_own(dim, basis[m])) for m in range(1, n_launch + 1)
                if draw(st.booleans())})
    psi0 = np.zeros(dim, dtype=np.complex128)
    psi0[list(basis[0])] = [draw(_complex()) for _ in basis[0]]
    model = ScenarioModel(dim, tuple(components), HamiltonianPartition(own, tuple(gaps)), psi0)
    report = validate_model(model)
    assert report.ok, report.render()
    return model
