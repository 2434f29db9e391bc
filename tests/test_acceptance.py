"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavy table reproductions keep within their stated runtime
budgets on an ordinary workstation.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from chargepair import bethe, fss, liebwu, models, reference_tables, spectra, ybx
from chargepair.models import ModelParams, build_model
from helpers import transfer_matrix


def dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def maxabs(m):
    return float(np.max(np.abs(m)))


def sorted_spectrum(kind, params):
    return np.sort(np.linalg.eigvalsh(dense(build_model(kind, params))))


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def test_01_two_site_closed_forms():
    t0 = time.time()
    for U in (1.0, 2.5, 6.0):
        for row in bethe.l2_closed_forms(U):
            h = build_model(
                "charge_pair_transformed", ModelParams(L=2, U=U), sector=row["sector"]
            )
            levels = np.linalg.eigvalsh(dense(h))
            assert np.min(np.abs(levels - row["energy"])) <= 1e-12
        # the half-filled pair of rows carries the momentum exponentials
        z1, z2 = bethe.l2_closed_forms(U)[3]["exp_ik"]
        e_from_roots = -(z1 + 1.0 / z1 + z2 + 1.0 / z2).real + (U / 2.0) * (1 - 2)
        assert abs(e_from_roots - U / 2.0) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"two-site closed forms exact for U in (1, 2.5, 6) [{elapsed:.2f}s]")


def test_02_spectrum_equivalences():
    t0 = time.time()
    for U in (1.0, 4.0):
        p = ModelParams(L=4, U=U)
        dev = maxabs(sorted_spectrum("hubbard", p) - sorted_spectrum("charge_pair", p))
        assert dev <= 1e-10
    p3 = ModelParams(L=3, U=2.0)
    dev3 = maxabs(sorted_spectrum("hubbard", p3) - sorted_spectrum("charge_pair", p3))
    assert dev3 > 1e-3
    for L in (3, 5):
        p = ModelParams(L=L, U=2.0)
        dev = maxabs(
            sorted_spectrum("spin_coupled", p) - sorted_spectrum("charge_pair", p)
        )
        assert dev <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"spectrum equivalences (L=4 match, L=3 split, spin chain L=3,5) [{elapsed:.1f}s]")


def test_03_conservation_laws():
    t0 = time.time()
    for L in (3, 4, 5, 6):
        hc = build_model("charge_pair", ModelParams(L=L, U=1.0))
        for kind in ("S_y", "R_x"):
            g = models.symmetry_generator(kind, L)
            assert spectra.commutator_norm(hc, g) <= 1e-12
    staggered = ("S_x_staggered", "S_z_staggered", "R_y_staggered", "R_z_staggered")
    for L in (4, 6):
        hc = build_model("charge_pair", ModelParams(L=L, U=1.0))
        for kind in staggered:
            assert spectra.commutator_norm(hc, models.symmetry_generator(kind, L)) <= 1e-12
    for L in (3, 5):
        hc = build_model("charge_pair", ModelParams(L=L, U=1.0))
        for kind in staggered:
            assert spectra.commutator_norm(hc, models.symmetry_generator(kind, L)) > 0.1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(3, f"conservation laws and staggered enlargement for L=3..6 [{elapsed:.1f}s]")


def test_04_reference_states():
    t0 = time.time()
    U = 2.0
    for L in (3, 4, 5, 6):
        for which in ("table1_plus", "table1_minus", "table1_ferro"):
            assert spectra.reference_state_residual(which, L, U) <= 1e-12
        if L % 2:
            for which in ("table10_plus", "table10_minus"):
                assert spectra.reference_state_residual(which, L, U) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(4, f"product eigenstates at +-LU/4 for L=3..6 [{elapsed:.1f}s]")


def test_05_bethe_vs_exact_diagonalization():
    t0 = time.time()
    for L in (6, 5):
        U = 2.0
        cfg = bethe.quantum_numbers("ground", L, U)
        e = bethe.energy(bethe.solve(cfg))
        h = build_model("charge_pair_transformed", ModelParams(L=L, U=U), sector=cfg.sector)
        e0 = np.linalg.eigvalsh(dense(h))[0]
        assert abs(e - e0) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(5, f"solver ground energies match sector diagonalization at L=6,5 [{elapsed:.1f}s]")


def test_06_thermodynamic_gap_values():
    t0 = time.time()
    for U, ref in reference_tables.GAP_INFINITE.items():
        assert abs(liebwu.gap_infinite(U) - ref) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(6, f"infinite-size gap integrals at U=2,3,4 [{elapsed:.2f}s]")


def scored_cells(table):
    """(U, L, reference) of every cell of a published table that is scored,
    each column in increasing L."""
    return [(U, L, ref) for U, column in reference_tables.TABLES[table].items()
            for L, ref in column.items() if not reference_tables.is_suspect(table, U, L)]


def test_07_even_gap_table():
    t0 = time.time()
    cells = scored_cells("table4")
    for U, L, ref in cells:
        assert abs(bethe.charge_gap(L, U) - ref) <= 1e-8, (L, U)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(7, f"all {len(cells)} scored even-size gap table entries [{elapsed:.1f}s]")


def test_08_odd_gap_table():
    t0 = time.time()
    cells = scored_cells("table7")
    for U, L, ref in cells:
        assert abs(bethe.charge_gap(L, U) - ref) <= 1e-8, (L, U)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(8, f"all {len(cells)} scored odd-size gap table entries [{elapsed:.1f}s]")


def test_09_central_charge_table():
    t0 = time.time()
    assert abs(fss.central_charge_estimator(222, 2.0) - 0.9990148608) <= 1e-6
    assert abs(fss.central_charge_estimator(1038, 4.0) - 1.0004712889) <= 1e-6
    for U in (2.0, 3.0, 4.0):
        assert abs(fss.central_charge_estimator(1038, U) - 1.0) <= 1e-3
    elapsed = time.time() - t0
    report(9, f"central-charge estimators and unit-charge trend [{elapsed:.1f}s]")


def test_10_dimension_tables():
    t0 = time.time()
    sizes = list(reference_tables.ODD_SIZES)
    targets = {0: 0.125, 1: 0.625}
    tables = {0: reference_tables.DIMENSION_X0, 1: reference_tables.DIMENSION_X1}
    for j in (0, 1):
        for U in (2.0, 3.0, 4.0):
            series = fss.scaling_dimension_series(j, sizes, U)
            for L, value in series.points:
                assert abs(value - tables[j][U][L]) <= 5e-3, (j, U, L)
            limit = fss.dimension_series_limit(series, U).limit
            assert abs(limit - targets[j]) <= 5e-3, (j, U)
    elapsed = time.time() - t0
    report(10, f"dimension estimators track the printed tables and 1/8, 5/8 limits [{elapsed:.1f}s]")


def test_11_gap_extrapolation():
    # both parities reach one gap: the published even and odd columns, less
    # the out-of-trend cells, extrapolate onto the integral values
    t0 = time.time()
    for table, columns in (("table4", reference_tables.GAP_EVEN),
                           ("table7", reference_tables.GAP_ODD)):
        for U, column in columns.items():
            points = tuple((L, v) for L, v in sorted(column.items())
                           if not reference_tables.is_suspect(table, U, L))
            limit = fss.extrapolate(fss.FssSeries(points), mode="power-law").limit
            assert abs(limit - reference_tables.GAP_INFINITE[U]) <= 2e-4, (table, U)
    elapsed = time.time() - t0
    report(11, f"even- and odd-gap columns extrapolate onto the integral values [{elapsed:.1f}s]")


def test_12_yang_baxter_sweeps():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for U in (1.0, 2.0, 4.0):
        pairs = rng.uniform(0.0, 2.0 * np.pi, size=(100, 2))
        worst = max(ybx.ybe_residual_spin(l1, l2, U) for l1, l2 in pairs)
        assert worst <= 1e-12
        lams = rng.uniform(0.0, 2.0 * np.pi, size=100)
        assert max(ybx.curve_point(lam, U).residual for lam in lams) <= 1e-12
    pts = ybx.random_curve_points(2.0, 100, seed=5)
    worst = max(ybx.ybe_residual_graded(pts[i], pts[50 + i]) for i in range(50))
    assert worst <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(12, f"Yang-Baxter residual sweeps (spin, curve, graded check form) [{elapsed:.1f}s]")


def test_13_transfer_matrix():
    t0 = time.time()
    lams = np.linspace(0.1, 1.3, 5)
    mats = [transfer_matrix(lam, 2.0, 3) for lam in lams]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert maxabs(mats[i] @ mats[j] - mats[j] @ mats[i]) <= 1e-10
    resid, _ = ybx.spin_chain_constant_fit(2.0, 3)
    assert resid <= 1e-10
    elapsed = time.time() - t0
    report(13, f"commuting transfer family and spin-chain log-derivative [{elapsed:.1f}s]")


def test_14_density_expansion():
    t0 = time.time()
    U = 2.0
    assert maxabs(ybx.density_expansion(U) - ybx.two_site_density_reference(U)) <= 1e-10
    from chargepair import fock

    L = 3
    terms = []
    for j in range(1, L + 1):
        jn = 1 if j == L else j + 1
        for spin in (fock.UP, fock.DOWN):
            terms.append((1.0, [(fock.ANNIHILATE, spin, j), (fock.ANNIHILATE, spin, jn)]))
            terms.append((1.0, [(fock.CREATE, spin, jn), (fock.CREATE, spin, j)]))
        for site in (j, jn):
            nu = [(fock.CREATE, fock.UP, site), (fock.ANNIHILATE, fock.UP, site)]
            nd = [(fock.CREATE, fock.DOWN, site), (fock.ANNIHILATE, fock.DOWN, site)]
            terms += [(U / 2, nu + nd), (-U / 4, nu), (-U / 4, nd), (U / 8, [])]
        terms.append((U / 4, []))
    ring = fock.assemble_operator(L, terms)
    hc = build_model("charge_pair", ModelParams(L=L, U=U))
    assert maxabs(ring - hc - (L * U / 4.0) * np.eye(4**L)) <= 1e-10
    elapsed = time.time() - t0
    report(14, f"two-body density extraction and ring sum [{elapsed:.1f}s]")


def test_15_extended_model():
    t0 = time.time()
    p_flux = ModelParams(L=3, U=2.0, theta_up=0.4, theta_down=-0.7)
    ev_flux = sorted_spectrum("charge_pair", p_flux)
    ev_base = sorted_spectrum("charge_pair", ModelParams(L=3, U=2.0))
    assert maxabs(ev_flux - ev_base) <= 1e-11

    h1, h2 = 0.3, 0.2
    p_full = ModelParams(L=3, U=2.0, theta_up=0.4, theta_down=-0.7, h1=h1, h2=h2)
    h0 = dense(build_model("charge_pair", p_flux))
    hh = dense(build_model("charge_pair", p_full))
    s, r = (dense(m) for m in models.extended_charges(p_flux))

    # joint (spin, charge) sectors of the two commuting dressed generators
    def joint_blocks():
        vals_s, vecs_s = np.linalg.eigh(s)
        for sy in np.unique(np.round(vals_s * 2) / 2):
            cols = np.abs(vals_s - sy) < 1e-8
            basis_s = vecs_s[:, cols]
            r_block = basis_s.conj().T @ r @ basis_s
            vals_r, vecs_r = np.linalg.eigh(r_block)
            for rx in np.unique(np.round(vals_r * 2) / 2):
                cols_r = np.abs(vals_r - rx) < 1e-8
                yield sy, rx, basis_s @ vecs_r[:, cols_r]

    checked = 0
    for sy, rx, basis in joint_blocks():
        e0 = np.sort(np.linalg.eigvalsh(basis.conj().T @ h0 @ basis))
        eh = np.sort(np.linalg.eigvalsh(basis.conj().T @ hh @ basis))
        shift = 2.0 * h1 * sy + 2.0 * h2 * rx
        assert maxabs(eh - e0 - shift) <= 1e-10
        checked += len(e0)
    assert checked == 4**3
    elapsed = time.time() - t0
    report(15, f"extended model: removable fluxes and exact sector shifts [{elapsed:.1f}s]")
