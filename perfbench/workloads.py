"""The benchmark's workloads: the cells each one runs and the checks on their
outputs.

A cell is one table entry or one exact-diagonalization check, the unit a
single command-line call computes.  Cells are grouped; the cells of a group
run in order (a scaling-dimension ladder reuses the energies solved by its
previous entry), and the workload seed shuffles the groups.  Sizes and
couplings are those of the published tables, where the reference values
exist.  Every check uses the tolerance the tier-1 tests already use for
the same quantity.

Every cell takes at most about half a second on a two-core Xeon VM, so a
run repeats each cell many times: the benchmark reports each cell's fastest
repetition, and on a shared host that is steady only for short cells (see
``run.py``).  The larger published sizes are left out for that reason: the
gap cells at L=462-1038 (0.4-2.9 s each), the dimension ladders to
L=305-465 (0.7-7 s), the L=5 spectrum comparisons (0.8 s), the L=6 full
space (16 s for one complex 4096-dim eigvalsh), the L=7 full space by
Lanczos (1.1 s) and the L=9 and L=10 sector blocks (1.5 s and 7-8 s).

Calls go through module attributes (``fss.scaling_dimension_series(...)``),
never through names bound at import, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from chargepair import bethe, cli, fss, models, reference_tables, spectra, ybx
from chargepair.models import ModelParams

TOL_GAP = 1e-8              # test_acceptance 07/08
TOL_DIMENSION = 5e-3        # test_acceptance 10
TOL_BETHE_VS_ED = 1e-10     # test_acceptance 05
TOL_SPECTRUM = 1e-10        # test_acceptance 02 (hubbard = charge_pair)
TOL_IDENTITY = 1e-12        # commutators, product-state residuals, YBE (03/04/12)
SPLIT_FLOOR = 1e-3          # test_acceptance 02: odd-L spectra differ

U_WEAK = 2.0
U_STRONG = 4.0
#: sizes of tables 4/7 up to this one
GAP_MAX_L = 385
#: the odd sizes of tables 8/9 in the dimension ladders; the direct Newton
#: attempt fails at L=225, so the solve continues in U there
FSS_SIZES = (65, 145, 225)


class OutOfTolerance(Exception):
    """A cell's output missed its reference."""


@dataclass(frozen=True)
class Cell:
    name: str
    run: Callable[[], None]


@dataclass(frozen=True)
class Workload:
    groups: Tuple[Tuple[Cell, ...], ...]
    #: wrappers the traced run must see fire on this workload
    expected_spans: Tuple[str, ...]


def _within(label: str, value: float, reference: float, tol: float) -> None:
    dev = abs(value - reference)
    if not dev <= tol:
        raise OutOfTolerance(f"{label}: |{value!r} - {reference!r}| = {dev:.3e} > {tol:g}")


def _singles(cells: Sequence[Cell]) -> Tuple[Tuple[Cell, ...], ...]:
    return tuple((c,) for c in cells)


# --- bethe: dimension ladders at weak coupling, gaps at strong coupling -----


def _dimension_cell(j: int, l1: int, l2: int) -> Cell:
    table = "table8" if j == 0 else "table9"

    def run():
        (L, value), = fss.scaling_dimension_series(j, [l1, l2], U_WEAK).points
        if not reference_tables.is_suspect(table, U_WEAK, L):
            _within(f"X{j}(L={L})", value, reference_tables.TABLES[table][U_WEAK][L],
                    TOL_DIMENSION)

    return Cell(f"{table}:U={U_WEAK:g}:L={l2}", run)


def _fss_weak(seed: int) -> Tuple[Tuple[Cell, ...], ...]:
    """One group: the X1 ladder reuses energies the X0 ladder solved, so
    neither ladder is independent of the other."""
    pairs = list(zip(FSS_SIZES, FSS_SIZES[1:]))
    return (tuple(_dimension_cell(j, a, b) for j in (0, 1) for a, b in pairs),)


def _gap_cell(table: str, L: int) -> Cell:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["reproduce", table, "--U", f"{U_STRONG:g}", "--sizes", str(L),
                             "--jobs", "1", "--format", "json"])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        (row,) = json.loads(out.getvalue())["rows"]
        if not reference_tables.is_suspect(table, U_STRONG, L):
            _within(f"gap(L={L})", row["computed"],
                    reference_tables.TABLES[table][U_STRONG][L], TOL_GAP)

    return Cell(f"{table}:U={U_STRONG:g}:L={L}", run)


def _gap_strong(seed: int) -> Tuple[Tuple[Cell, ...], ...]:
    cells = [_gap_cell("table4", L) for L in reference_tables.EVEN_SIZES if L <= GAP_MAX_L]
    cells += [_gap_cell("table7", L) for L in reference_tables.ODD_SIZES if L <= GAP_MAX_L]
    return _singles(cells)


def _bethe(seed: int) -> Tuple[Tuple[Cell, ...], ...]:
    """The weak-coupling ladders exercise the seed and the continuation in U;
    the strong-coupling gaps, whose Newton converges directly, bypass them.
    They share one workload so that every run is long enough to be steady
    (see ``run.py``); ``bethe.solve.iters`` and ``s_per_iter`` in the traced
    run tell the two mechanisms apart."""
    return _fss_weak(seed) + _gap_strong(seed)


# --- ed_dense ---------------------------------------------------------------


def _spectrum(kind: str, L: int, U: float = U_WEAK) -> spectra.SpectrumReport:
    return spectra.spectrum(models.build_model(kind, ModelParams(L=L, U=U)))


def _check_odd_low_levels(ev: np.ndarray, L: int) -> None:
    """The lowest four levels of the full odd-L space are the Bethe ground
    state and charge excitation, each twice (spin flip and particle-hole
    partners)."""
    e0 = bethe.state_energy("ground", L, U_WEAK)
    ec = bethe.state_energy("charge_excitation", L, U_WEAK)
    for i, ref in enumerate(sorted((e0, e0, ec, ec))):
        _within(f"level {i} vs Bethe", ev[i], ref, TOL_BETHE_VS_ED)


DENSE_L = 5


def _dense_cell() -> Cell:
    """Full 1024-dim spectrum: its lowest levels are Bethe states and it
    holds the product-state energies +-LU/4."""

    def run():
        ev = _spectrum("charge_pair", DENSE_L).eigenvalues
        _check_odd_low_levels(ev, DENSE_L)
        for e in (DENSE_L * U_WEAK / 4.0, -DENSE_L * U_WEAK / 4.0):
            _within(f"level {e:g}", float(np.min(np.abs(ev - e))), 0.0, TOL_SPECTRUM)

    return Cell(f"dense:charge_pair:L={DENSE_L}", run)


def _compare_cell(kind_a: str, kind_b: str, L: int, equal: bool) -> Cell:
    def run():
        dev = spectra.compare_spectra(_spectrum(kind_a, L), _spectrum(kind_b, L),
                                      TOL_SPECTRUM).deviation
        if equal:
            _within(f"{kind_a} vs {kind_b}", dev, 0.0, TOL_SPECTRUM)
        elif not dev > SPLIT_FLOOR:
            raise OutOfTolerance(f"{kind_a} vs {kind_b} should split, deviation {dev:.3e}")

    relation = "=" if equal else "!="
    return Cell(f"compare:{kind_a}{relation}{kind_b}:L={L}", run)


def _commutator_cell(L: int) -> Cell:
    def run():
        h = models.build_model("charge_pair", ModelParams(L=L, U=1.0))
        for generator in ("S_y", "R_x"):
            norm = spectra.commutator_norm(h, models.symmetry_generator(generator, L))
            _within(f"[H, {generator}]", norm, 0.0, TOL_IDENTITY)

    return Cell(f"commutators:S_y,R_x:L={L}", run)


def _table1_cell(L: int) -> Cell:
    def run():
        for which in ("table1_plus", "table1_minus", "table1_ferro"):
            _within(which, spectra.reference_state_residual(which, L, U_WEAK), 0.0,
                    TOL_IDENTITY)

    return Cell(f"reference_states:table1:L={L}", run)


YBE_COUPLINGS = (1.0, 2.0, 4.0)
#: pairs per coupling: a sixth of the tier-1 sweep, so that the sweep stays
#: a minor share of ``ed_dense`` next to eigvalsh
YBE_PAIRS = 15


def _ybe_cell(seed: int) -> Cell:
    """Spin-chain YBE residuals at seeded spectral-parameter pairs for each
    coupling."""
    pairs = np.random.default_rng(seed).uniform(
        0.0, 2.0 * np.pi, size=(len(YBE_COUPLINGS), YBE_PAIRS, 2))

    def run():
        for U, sweep in zip(YBE_COUPLINGS, pairs):
            worst = max(ybx.ybe_residual_spin(l1, l2, U) for l1, l2 in sweep)
            _within(f"YBE residual U={U:g}", worst, 0.0, TOL_IDENTITY)

    return Cell(f"ybe:spin:pairs={len(YBE_COUPLINGS) * YBE_PAIRS}", run)


def _ed_dense(seed: int) -> Tuple[Tuple[Cell, ...], ...]:
    """Full spaces up to L=5 (dimension 1024).  Table-1 residuals stop at
    L=4: at L=5 they build the 1024-dim operator three times, and Fock
    assembly would outweigh eigvalsh."""
    cells = [_dense_cell(),
             _compare_cell("hubbard", "charge_pair", 3, equal=False),
             _compare_cell("spin_coupled", "charge_pair", 3, equal=True),
             _compare_cell("hubbard", "charge_pair", 4, equal=True),
             _ybe_cell(seed)]
    cells += [_commutator_cell(L) for L in (3, 4, 5)]
    cells += [_table1_cell(L) for L in (3, 4)]
    return _singles(cells)


# --- ed_sector --------------------------------------------------------------

LANCZOS_K = 4


def _sector_cell(L: int) -> Cell:
    """Lowest level of the transformed model's block at the ground state's
    particle numbers against the Bethe ground energy."""

    def run():
        sector = bethe.quantum_numbers("ground", L, U_WEAK).sector
        h = models.build_model("charge_pair_transformed", ModelParams(L=L, U=U_WEAK),
                               sector=sector)
        ev = spectra.spectrum(h, k=LANCZOS_K, sector=sector).eigenvalues
        _within("E0 vs Bethe", ev[0], bethe.state_energy("ground", L, U_WEAK), TOL_BETHE_VS_ED)

    return Cell(f"sector:charge_pair_transformed:L={L}", run)


def _ed_sector(seed: int) -> Tuple[Tuple[Cell, ...], ...]:
    return _singles([_sector_cell(7), _sector_cell(6)])


# ---------------------------------------------------------------------------

#: workload -> (cells, wrappers the traced run must see fire); why each
#: workload was chosen is recorded in BENCHMARK.json
_WORKLOADS = {
    "bethe": (
        _bethe,
        ("bethe.solve", "bethe.state_energy", "liebwu.ground_energy_density",
         "fss.scaling_dimension_series", "cli.main"),
    ),
    "ed_dense": (
        _ed_dense,
        ("fock.assemble_operator", "models.build_model", "models.symmetry_generator",
         "spectra.spectrum", "spectra._as_dense", "spectra.compare_spectra",
         "spectra.commutator_norm", "spectra.reference_state_residual",
         "ybx.ybe_residual_spin"),
    ),
    "ed_sector": (
        _ed_sector,
        ("fock.assemble_operator", "models.build_model", "spectra.spectrum", "bethe.solve"),
    ),
}

NAMES = tuple(_WORKLOADS)


def build(name: str, seed: int) -> Workload:
    make, expected = _WORKLOADS[name]
    groups = make(seed)
    names = [c.name for g in groups for c in g]
    assert len(set(names)) == len(names), f"duplicate cell names in {name}"
    return Workload(groups, expected)
