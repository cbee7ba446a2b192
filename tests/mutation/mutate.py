"""The committed mutation list, and a runner that checks each mutant dies.

A mutant is one exact text replacement in one file of the tree, a line
on what it breaks, and the ids of the tests expected to kill it.  The
runner copies the tree to a temporary directory and applies the mutants
one at a time, in sequence.  It runs each mutant's tests there with
``pytest -x -q`` and records whether a test failed (killed) or all
passed (survived), and how long it took.  It needs the standard library
and the test suite's own dependencies only.

    python tests/mutation/mutate.py              # every mutant
    python tests/mutation/mutate.py NAME ...     # the named ones

It exits 0 if every mutant ran was killed, 1 if one survived or its
tests could not run, and 2 if the named tests fail on the unmutated
tree.  Tier-1 does not run it (``test_mutant_list.py`` only checks that
each mutant's old text occurs exactly once in its file), so a change
that removes or rewrites a mutant's target must update its entry here.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# what the copy of the tree leaves out: version control and run leftovers
IGNORED = (".git", "__pycache__", ".pytest_cache", ".hypothesis",
           ".bench_work", "out")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str      # relative to the root of the tree
    old: str       # occurs exactly once in ``file``
    new: str
    breaks: str
    tests: tuple   # pytest node ids, relative to the root of the tree


MUTANTS = (
    # -- the one solve gate, the mu probes and compose's cap ---------------
    Mutant("gate-widened", "src/lclab/kernels.py",
           '_check_backward_error("tridiagonal", residual, DEFAULT_SOLVE_TOL)',
           '_check_backward_error("tridiagonal", residual, 1e-6)',
           "the band solves gate at 1e-6 instead of the one constant",
           ("tests/test_kernels.py::"
            "test_tridiagonal_backward_error_is_checked",
            "tests/test_runner.py::test_the_solve_gate_reaches_every_solve")),
    Mutant("one-mu-probe", "src/lclab/runner.py",
           'if values["sweep"]["mu_points"] < 2:',
           'if values["sweep"]["mu_points"] < 1:',
           "birman runs on a single mu probe, which spans no range",
           ("tests/test_runner.py::"
            "test_fewer_than_two_mu_probes_is_a_config_error",)),
    Mutant("compose-cap-skipped", "src/lclab/runner.py",
           "lambda points: tr.check_compose_grid(tr.TorusGrid(points)),",
           "tr.TorusGrid,",
           "a compose grid past the cap passes the config check, then the "
           "run dies",
           ("tests/test_runner.py::"
            "test_grid_that_does_not_fit_is_a_config_error",
            "tests/test_runner.py::"
            "test_compose_grid_cap_is_the_check_compose_runs")),
    # -- the nonlocal solve in flux form -----------------------------------
    Mutant("nonlocal-dtn-sign", "src/lclab/coupling.py",
           "dtn = -grid.gamma_weights[0] * np.linalg.inv(ntd)",
           "dtn = grid.gamma_weights[0] * np.linalg.inv(ntd)",
           "the interior's DtN enters with the wrong sign",
           ("tests/test_coupling.py::"
            "test_nonlocal_polar_matches_per_mode_elimination",
            "tests/test_coupling.py::"
            "test_nonlocal_bordered_solve_matches_spsolve",
            "tests/test_coupling.py::test_nonlocal_matches_transmission_1d")),
    Mutant("nonlocal-interior-link-kept", "src/lclab/coupling.py",
           "        diag[:, row] = (diag[:, row] - out[:, row] "
           "+ inner[:, row]) / 2\n        inner[:, row] = 0.0\n",
           "        pass\n",
           "the interface rows keep their whole cell and their link into "
           "the inclusion",
           ("tests/test_coupling.py::"
            "test_exterior_half_bands_keep_the_exterior_half_cell",
            "tests/test_coupling.py::"
            "test_nonlocal_bordered_solve_matches_spsolve")),
    Mutant("nonlocal-no-interval-coupling", "src/lclab/coupling.py",
           "        upper[:, at[0]], lower[:, at[1]] = dtn[:, 0, 1], "
           "dtn[:, 1, 0]\n",
           "        pass\n",
           "the interval's DtN loses its off-diagonal, which couples the "
           "two endpoints",
           ("tests/test_coupling.py::"
            "test_nonlocal_bordered_solve_matches_spsolve",)),
    # -- invariants that hold exactly on every grid ------------------------
    Mutant("potential-sign", "src/lclab/grids.py",
           "return lower, base + lam * self._band_potential, upper",
           "return lower, base - lam * self._band_potential, upper",
           "the potential lowers the coupled form instead of raising it",
           ("tests/test_counting.py::"
            "test_grid1d_mode_bands_are_the_coupled_matrix",
            "tests/test_grids.py::"
            "test_band_products_are_the_sparse_operators",
            "tests/test_counting.py::"
            "test_each_eigenvalue_does_not_rise_with_the_coupling")),
    Mutant("row-measure-outer-ring", "src/lclab/grids.py",
           "        measure[-1] = half_cell(self.ntot * hr)\n",
           "",
           "the disk's outer ring weighs a whole cell, not the half inside "
           "the annulus",
           ("tests/test_grids.py::test_polar_weights_tile_the_disk",
            "tests/test_counting.py::"
            "test_each_eigenvalue_does_not_rise_with_the_coupling")),
    Mutant("gamma-rows-swapped", "src/lclab/grids.py",
           "self.gamma_rows = self.nr_int + np.arange(3)[None, :]",
           "self.gamma_rows = self.nr_int + np.array([0, 2, 1])[None, :]",
           "the disk's gamma1 stencil weighs its two exterior layers "
           "crosswise",
           ("tests/test_grids.py::"
            "test_interface_layout_locates_gamma_in_the_blocks",
            "tests/test_counting.py::"
            "test_each_eigenvalue_does_not_rise_with_the_coupling")),
    # -- the interface operators, stated once in ``interface`` ------------
    Mutant("flat-difference-sign", "src/lclab/interface.py",
           "return 1.0 / (np.abs(xi) + _decay_rate(xi, lam))",
           "return 1.0 / (np.abs(xi) - _decay_rate(xi, lam))",
           "the flat W is taken as 1 / (xi - s), which is negative",
           ("tests/test_coupling.py::test_green_2d_polar_identities",
            "tests/test_counting.py::"
            "test_disk_spectrum_satisfies_birman_inequality")),
    Mutant("flat-transmission-sign", "src/lclab/interface.py",
           "return 1.0 + np.abs(xi) / _decay_rate(xi, lam)",
           "return 1.0 - np.abs(xi) / _decay_rate(xi, lam)",
           "the flat D is taken as 1 - |xi| / s",
           ("tests/test_symbols.py::test_transmission_symbol_flat_formula",)),
    Mutant("csch-negated", "src/lclab/interface.py",
           "csch = 2.0 * em / (1.0 - em * em)",
           "csch = -2.0 * em / (1.0 - em * em)",
           "the interval's NtD couples its endpoints with the wrong sign",
           ("tests/test_coupling.py::"
            "test_ntd_matrix_against_interior_solver",)),
    Mutant("gram-swapped", "src/lclab/interface.py",
           "return np.diag([domain.a1, domain.length - domain.a2])",
           "return np.diag([domain.length - domain.a2, domain.a1])",
           "the exterior Gram gives each endpoint the other piece's length",
           ("tests/test_coupling.py::"
            "test_exterior_gram_orientation_matches_the_grid",)),
    # -- counts, thresholds and the band kernel ----------------------------
    Mutant("count-side-left", "src/lclab/counting.py",
           'side="right"', 'side="left"',
           "an eigenvalue equal to mu counts, so N(mu) is not strict",
           ("tests/test_counting.py::"
            "test_counting_function_is_strict_and_needs_positive_mu",)),
    Mutant("circle-no-fallback", "src/lclab/counting.py",
           "        for i in np.flatnonzero(inside & (top > 4) "
           "& ~above[:, 0]):\n"
           "            modes[i] = _enumerated_modes(radius, lam, flat[i], "
           "top[i])\n",
           "",
           "a mu whose prefix is not confirmed is counted unenumerated",
           ("tests/test_counting.py::"
            "test_counting_circle_enumerates_where_rounding_hides_"
            "the_prefix",)),
    Mutant("circle-k-mask-dropped", "src/lclab/counting.py",
           "above[:, 1:] & (k[:, 1:] >= 1)", "above[:, 1:]",
           "the circle count takes modes k <= 0 of its window as k >= 1",
           ("tests/test_counting.py::test_counting_circle_matches_enumeration",
            "tests/test_counting.py::"
            "test_counting_circle_matches_enumeration_on_seeded_draws")),
    Mutant("norms-last-block", "src/lclab/counting.py",
           "blocks=slice(1))[:, 0, -1]", "blocks=slice(-1, None))[:, 0, -1]",
           "||E_lam|| is read from the last block instead of block 0",
           ("tests/test_counting.py::"
            "test_rate2d_fit_reads_the_spectral_tops_to_the_bit",
            "tests/test_counting.py::test_block_zero_carries_the_norm")),
    Mutant("lockstep-stops-early", "src/lclab/coupling.py",
           "while np.any(open_ := hi / lo > 1.0 + THRESHOLD_REL_TOL):",
           "while np.all(open_ := hi / lo > 1.0 + THRESHOLD_REL_TOL):",
           "the threshold bisections all stop when any mu closes",
           ("tests/test_coupling.py::"
            "test_threshold_matches_scalar_bisections",)),
    Mutant("back-substitution-swapped", "src/lclab/kernels.py",
           "    x_even[..., :x_odd.shape[-1]] += np.multiply(\n"
           "        neg_upper[..., :-1:2], x_odd, out=rhs_odd)\n"
           "    x_even[..., 1:] += np.multiply(\n"
           "        neg_lower[..., 2::2], x_odd[..., :m_right], "
           "out=rhs_odd[..., :m_right])\n",
           "    x_even[..., 1:] += np.multiply(\n"
           "        neg_lower[..., 2::2], x_odd[..., :m_right], "
           "out=rhs_odd[..., :m_right])\n"
           "    x_even[..., :x_odd.shape[-1]] += np.multiply(\n"
           "        neg_upper[..., :-1:2], x_odd, out=rhs_odd)\n",
           "the even rows add their two neighbours in the other order",
           ("tests/test_kernels.py::"
            "test_cyclic_reduction_is_bit_identical_to_the_oracle",)),
    Mutant("bands-writable", "src/lclab/grids.py",
           "        for band in self._bands:\n"
           "            band.flags.writeable = False\n",
           "",
           "a caller can write into a grid's cached lam-free bands",
           ("tests/test_grids.py::"
            "test_cached_bands_are_read_only_and_match_a_fresh_build",)),
    # -- the torus stack in the real basis ---------------------------------
    Mutant("sine-column-unscaled", "src/lclab/torus.py",
           "np.multiply(table[:, 1:count - top].imag, norm[top + 1:],",
           "np.multiply(table[:, 1:count - top].imag, 1.0,",
           "the sine columns lose their sqrt(2)",
           ("tests/test_torus.py::"
            "test_real_matrix_is_the_operator_in_the_real_basis",)),
    Mutant("no-reality-check", "src/lclab/torus.py",
           "    _check_real(table, what)\n    top = count // 2\n",
           "    top = count // 2\n",
           "a complex operator is folded into the real basis unchecked",
           ("tests/test_torus.py::"
            "test_non_real_symbol_is_rejected_before_any_eigensolve",)),
    Mutant("no-finiteness-check", "src/lclab/torus.py",
           "    if not (gap <= REAL_ULPS * np.finfo(float).eps * scale\n"
           "            and scale < math.inf):",
           "    if not gap <= REAL_ULPS * np.finfo(float).eps * scale:",
           "an infinite table passes the reality check",
           ("tests/test_torus.py::"
            "test_non_finite_table_is_rejected_before_any_transform",)),
    Mutant("nyquist-cosine-scaled", "src/lclab/torus.py",
           "    if count % 2 == 0:\n        norm[top] = 1.0\n",
           "",
           "the Nyquist cosine is weighted sqrt(2) like a paired one",
           ("tests/test_torus.py::"
            "test_real_matrix_is_the_operator_in_the_real_basis",)),
    Mutant("sine-rows-not-negated", "src/lclab/torus.py",
           "np.multiply(coeffs.imag[1:-1], -ROOT2 / grid.m, out=mat[half:])",
           "np.multiply(coeffs.imag[1:-1], ROOT2 / grid.m, out=mat[half:])",
           "the sine coordinates come out with the wrong sign",
           ("tests/test_torus.py::"
            "test_real_matrix_is_the_operator_in_the_real_basis",)),
    Mutant("nyquist-root-from-exp", "src/lclab/torus.py",
           "        half[0], half[-1] = 1.0, -1.0\n",
           "        half[0] = 1.0\n",
           "the Nyquist root keeps exp(i pi)'s rounding, so +-M/2 are not "
           "exact",
           ("tests/test_torus.py::"
            "test_phase_is_the_table_of_roots_of_unity",)),
    # -- the config check, the fits and the symbol certificate -------------
    Mutant("parts-stop-at-first", "src/lclab/runner.py",
           "                violations += [v for v in err.violations\n"
           "                               if v not in violations]\n",
           "                raise ConfigError(violations + err.violations)\n",
           "a grid violation hides the sweep violation behind it",
           ("tests/test_runner.py::"
            "test_grid_violation_does_not_hide_the_sweep_violation",)),
    Mutant("unknown-section-keys-reported", "src/lclab/runner.py",
           "            if section is None:\n",
           "            if True:\n",
           "each key of an unknown section is reported a second time, as a "
           "key before any section",
           ("tests/test_runner.py::"
            "test_keys_of_an_unknown_section_are_reported_once",)),
    Mutant("fit-without-distinct-x", "src/lclab/kernels.py",
           "    if lx.size < 2 or not lx.max() > lx.min():\n",
           "    if lx.size < 1:\n",
           "a log-log fit of one repeated x divides by zero",
           ("tests/test_kernels.py::test_loglog_fit_needs_two_distinct_x",)),
    Mutant("xi-step-uncapped", "src/lclab/symbols.py",
           "XI_STEP_SCALE * np.minimum(t, XI_STEP_CAP * np.abs(xis)))",
           "XI_STEP_SCALE * t)",
           "the xi stencil straddles the kink of |xi| at 0",
           ("tests/test_symbols.py::"
            "test_membership_sample_grid_is_built_once_and_read_only",)),
    Mutant("xi-step-scale", "src/lclab/symbols.py",
           "XI_STEP_SCALE = 1e-3", "XI_STEP_SCALE = 1e-4",
           "a ten times smaller xi step, whose differences drown in "
           "rounding",
           ("tests/test_symbols.py::"
            "test_class_membership_matches_scalar_loop",
            "tests/test_symbols.py::"
            "test_class_membership_certifies_interface_symbols")),
    Mutant("coarse-rows-one-sign", "src/lclab/symbols.py",
           "rows = np.r_[0:n_xi:2, n_xi:2 * n_xi:2]",
           "rows = np.r_[0:n_xi:2]",
           "the certificate's coarse grid samples xi > 0 only",
           ("tests/test_symbols.py::"
            "test_class_membership_matches_scalar_loop",)),
    Mutant("sample-grid-writable", "src/lclab/symbols.py",
           "    for arr in grid:\n        arr.flags.writeable = False\n"
           "    return grid\n",
           "    return grid\n",
           "a caller can write into the cached certificate sample grid",
           ("tests/test_symbols.py::"
            "test_membership_sample_grid_is_built_once_and_read_only",)),
)


def run_tests(tree, tests):
    """(pytest's exit code, seconds, its last output lines) for ``tests``
    in ``tree``, importing the package from the tree's own ``src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    args = [sys.executable, "-m", "pytest", "-x", "-q",
            "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    done = subprocess.run(args, cwd=tree, env=env, capture_output=True,
                          text=True)
    tail = done.stdout.strip().splitlines()[-3:]
    return done.returncode, time.perf_counter() - start, tail


def mutate(tree, mutant):
    """Apply ``mutant`` to ``tree``; return the text it replaced."""
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    killed = 0
    with tempfile.TemporaryDirectory(prefix="lclab-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*IGNORED))
        named = sorted({t for m in chosen for t in m.tests})
        code, seconds, tail = run_tests(tree, named)
        print(f"unmutated: {len(named)} test ids, exit {code}, "
              f"{seconds:.1f} s")
        if code != 0:
            print("\n".join(tail))
            return 2
        for mutant in chosen:
            original = mutate(tree, mutant)
            try:
                code, seconds, tail = run_tests(tree, mutant.tests)
            finally:
                (tree / mutant.file).write_text(original)
            # 1: a test failed; 0: all passed; any other: they did not run
            outcome = {0: "survived", 1: "killed"}.get(code, "error")
            killed += outcome == "killed"
            print(f"{outcome:8s} {seconds:6.1f} s  {mutant.name}: "
                  f"{mutant.breaks}")
            if outcome != "killed":
                print("    " + "\n    ".join(tail))
    print(f"{killed} of {len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
