"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed, runs one operation as a
warm-up, and then runs identical rounds.  A round times every operation on
its own and checks each output against benchmarks/oracles.py or against a
property Loewner's or the Kubo-Ando theorem forces; the checks run outside
the timed regions.  Operations raising an exception count as failed.

* report      -- ``loewnerlab report --seed S`` at full size; its operations
                 are the twelve acceptance criteria.
* large_order -- chain-rule derivatives at orders 8..64 and operator means
                 at orders 16..128: the layers whose cost grows with matrix
                 order and atom count.
* check_loop  -- the four ``loewnerlab check`` trial loops at orders 2..8:
                 thousands of tiny matrices, where call overhead dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback

import numpy as np

import oracles as O
from tracer import CHECK_ORDERS, CRITERIA, MEAN_ORDERS, MIX_ORDERS, PATH_ORDERS

#: The package's relative PSD floor (hermitian.PSD_TOL), restated.
PSD_TOL = 1e-9


class Round:
    """Operations of one round: (label, seconds, units of work), plus faults."""

    def __init__(self):
        self.ops: list = []
        self.failed = 0
        self.errors: list = []
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed

    def run(self, label: str, fn, work: int = 1):
        """Time fn(); a raising operation counts as failed and returns None."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            self.failed += 1
            self.errors.append(f"{label} raised:\n{traceback.format_exc()}")
            return None
        dt = time.perf_counter() - t0
        self.ops.append((label, dt, work))
        self.wall += dt
        return out

    def expect(self, ok: bool, what: str):
        if not ok:
            self.errors.append(what)


def _random_hermitian(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """Exactly Hermitian matrix with eigenvalues drawn uniformly from (lo, hi)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    return O.herm((q * rng.uniform(lo, hi, n)) @ q.conj().T)


def _direction(rng, n: int) -> np.ndarray:
    """Hermitian direction of unit spectral norm."""
    h = O.herm(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return O.herm(h / np.linalg.norm(h, 2))


# ---------------------------------------------------------------------------
# report


@contextlib.contextmanager
def _criterion_clock(acceptance, times: list):
    """Time each top-level acceptance.run_criterion call into times."""
    orig = acceptance.run_criterion
    depth = [0]

    def timed(crit, cfg):
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return orig(crit, cfg)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                times.append((crit.name, time.perf_counter() - t0))

    acceptance.run_criterion = timed
    try:
        yield
    finally:
        acceptance.run_criterion = orig


class Report:
    name = "report"

    def __init__(self, lab, seed: int):
        self.lab, self.seed = lab, seed
        self.first_bytes = None
        # sqrt's 200-node midpoint rule on the inner spectrum [1/8, 8] that
        # criterion 8's pairs (spectra in (0.5, 4)) can reach
        mu = np.geomspace(0.125, 8.0, 4001)
        f200 = O.representing_function(*O.geometric_quadrature(200))
        self.geo_quad_err = float(np.abs(f200(mu) - np.sqrt(mu)).max())

    def _cli(self, *extra):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lab.cli.main(["report", "--seed", str(self.seed), *extra])
        return code, out.getvalue()

    def warm_up(self):
        code, _ = self._cli("--criteria", "refutation_witnesses")
        if code != 0:
            raise RuntimeError(f"warm-up report exited {code}")

    def round(self, tracer=None) -> Round:
        rnd, times = Round(), []
        with _criterion_clock(self.lab.acceptance, times):
            t0 = time.perf_counter()
            try:
                code, text = self._cli()
            except Exception:  # noqa: BLE001
                rnd.failed = len(CRITERIA)
                rnd.errors.append(traceback.format_exc())
                return rnd
            rnd.wall = time.perf_counter() - t0
        if code not in (0, 1):  # usage error or numerical failure: no report
            rnd.failed = len(CRITERIA)
            rnd.errors.append(f"report exited {code}")
            return rnd
        obj = json.loads(text)
        outcomes = {r["name"]: r["outcome"] for r in obj["records"]}
        for name, dt in times:
            if outcomes.get(name) == "pass":
                rnd.ops.append((f"acceptance.{name}_s", dt, 1))
            else:
                rnd.failed += 1
                rnd.errors.append(f"criterion {name}: {outcomes.get(name)}")
        rnd.expect(code == (0 if rnd.failed == 0 else 1), f"report exited {code}")
        rnd.expect([n for n, _ in times] == list(CRITERIA), f"criteria ran as {times}")
        if self.first_bytes is None:
            self.first_bytes = text
        rnd.expect(text == self.first_bytes, "report bytes differ between rounds")
        self.check(rnd, obj)
        return rnd

    def check(self, rnd: Round, obj):
        """Evidence re-derived apart from the program."""
        expect = rnd.expect
        expect(obj["config"] == {"seed": self.seed, "trials": None, "tol": None,
                                 "order_cap": 8}, f"config echo {obj['config']}")
        expect([r["name"] for r in obj["records"]] == list(CRITERIA), "record names")
        ev = {r["name"]: r["evidence"] for r in obj["records"]}

        # Delta(t^2)(s, t) = s + t: on (1, 3) the matrix [[2, 4], [4, 6]], det -4
        r = ev["refutation_witnesses"]
        ref = O.loewner_matrix("square", r["square_loewner_nodes"])
        expect(np.abs(np.array(r["square_loewner_matrix"]) - ref).max() <= 1e-12,
               "square Loewner matrix")
        expect(abs(r["square_determinant"] - np.linalg.det(ref)) <= 1e-12, "square determinant")
        expect(r["cube_direct_outcome"] == "fail", "cube refuted")

        # Loewner: monotone members have PSD Loewner matrices; so has -L_t1 f
        for name in ("loewner_psd_certificate", "difference_quotient_monotone"):
            expect(ev[name]["worst_min_eig_over_norm"] >= -PSD_TOL, f"{name} PSD margin")
        expect(ev["anchor_identity"]["worst_entry_error"] <= 1e-10, "anchor identity")

        # f'(1) of each normalized member, from its closed form
        for name, w in ev["extreme_point_machinery"]["derivative_weights"].items():
            expect(abs(w - O.weight_at_one(name)) <= 1e-12, f"f'(1) of {name}: {w}")

        r = ev["representation_roundtrips"]
        expect(r["mass_at_one_exact"] is True, "mass at one")
        expect(r["sqrt_fit_residual"] <= 1e-6 and r["kernel_conversion_error"] <= 1e-14,
               "representation round trip")

        # Kubo-Ando: monotone in both arguments; the quadrature mean differs
        # from the exact one by at most ||A|| max|f_200 - sqrt| / min eig(A#B)
        # <= 8 * that maximum, plus rounding at cond(A) cond(B) <= 64, n <= 4
        r = ev["kubo_ando_axioms"]
        expect(r["worst_monotonicity_min_eig"] >= -PSD_TOL, "connection monotonicity")
        geo_bound = 8.0 * self.geo_quad_err + 64.0 * O.EPS * 4 * 64
        expect(r["geometric_vs_closed_rel_err"] <= geo_bound,
               f"geometric quadrature error {r['geometric_vs_closed_rel_err']:.3e} "
               f"> {geo_bound:.3e}")
        expect(r["representing_vs_kernel_err"] <= 1e-12, "representing function")

        # |f * phi_eps - f| <= eps * Lip(sqrt on [1 - eps, 3 + eps]) = eps / (2 sqrt(1 - eps))
        r = ev["mollifier_regularization"]
        expect(r["normalization_error"] <= 1e-10, "mollifier mass")
        for key, v in r["lipschitz"].items():
            eps = float(key.split("=")[1])
            k_eps = 0.5 / math.sqrt(1.0 - eps) * eps
            expect(abs(v["k_eps"] - k_eps) <= 1e-15 and v["sup_gap"] <= k_eps,
                   f"mollifier gap at {key}")

        # Caratheodory: at most d + 1 = 7 atoms in dimension d <= 6
        r = ev["choquet_toolkit"]
        expect(r["caratheodory_instances"] == 1000 and r["caratheodory_max_support_excess"] <= 7,
               "Caratheodory support")
        expect(r["caratheodory_worst_residual"] <= 1e-9, "Caratheodory residual")

        # normalized operator monotone f: f(t) <= 1 + t and f nondecreasing
        r = ev["normalized_growth_bounds"]
        expect(r["worst_upper_bound_excess"] <= 1e-12 * 101.0, "f(t) <= 1 + t")
        expect(r["worst_monotonicity_gap"] >= -1e-12, "f nondecreasing")

        r = ev["determinism"]
        expect(r["identical"] is True and r["smoke_criteria"] == 11, "determinism")


# ---------------------------------------------------------------------------
# large_order


def _counted(lab, f, counter: list):
    """f with every call of its value and derivative callables counted."""
    def wrap(g):
        if g is None:
            return None

        def c(x):
            counter[0] += 1
            return g(x)
        return c

    return lab.ScalarFunction(f.name, f.domain, wrap(f.fn), wrap(f.d1), wrap(f.d2),
                              f.claimed_class)


class LargeOrder:
    name = "large_order"

    def __init__(self, lab, seed: int):
        self.lab = lab
        rng = np.random.default_rng(seed)
        self.lam = float(rng.uniform(0.1, 0.9))
        self.sqrt = lab.get_function("sqrt")
        self.kernel = lab.get_function(f"kernel:{self.lam!r}")
        samples = [(float(t), math.sqrt(t)) for t in np.geomspace(1e-3, 1e3, 100)]
        mu, _ = lab.fit_measure(samples, lab.default_lambda_grid(200))
        self.mix = lab.synthesize(mu)
        self.atoms = mu.atoms
        self.paths = {}
        for n in sorted(set(PATH_ORDERS + MIX_ORDERS)):
            a, h = _random_hermitian(rng, n, 0.25, 4.0), _direction(rng, n)
            path = lab.affine_path(lab.HermitianMatrix(a), lab.HermitianMatrix(h))
            self.paths[n] = (a, h, path)
        self.pairs = {}
        for n in MEAN_ORDERS:
            a, b = _random_hermitian(rng, n, 0.5, 4.0), _random_hermitian(rng, n, 0.5, 4.0)
            self.pairs[n] = (a, b, lab.HermitianMatrix(a), lab.HermitianMatrix(b))
        self.specs = {1: lab.harmonic_spec(), 50: lab.geometric_spec(50),
                      200: lab.geometric_spec(200)}
        self._refs: dict = {}

    def warm_up(self):
        n = min(self.paths)
        self.lab.path_derivative(self.sqrt, self.paths[n][2], 0.0)

    def _path_ref(self, key, n):
        if (key, n) not in self._refs:
            a, h, _ = self.paths[n]
            eigs = np.linalg.eigvalsh(a)
            if key == "sqrt":
                d1, d2 = O.sqrt_derivatives(a, h)
                fmax = math.sqrt(eigs.max())
            elif key == "kernel":
                d1, d2 = O.moebius_derivatives(self.lam, a, h)
                fmax = float(np.max(eigs / (self.lam + (1 - self.lam) * eigs)))
            else:
                d1, d2 = O.mixture_derivatives(self.atoms, a, h)
                fmax = float(max(sum(w * e / (lam + (1 - lam) * e) for lam, w in self.atoms)
                                 for e in eigs))
            self._refs[(key, n)] = (d1, d2, O.chain_rule_bounds(eigs, fmax))
        return self._refs[(key, n)]

    def _mean_ref(self, n, m):
        if (n, m) not in self._refs:
            a, b, _, _ = self.pairs[n]
            spec = self.specs[m]
            f = O.representing_function(spec.alpha, spec.beta, spec.interior)
            ref, mu = O.kubo_ando_mean(f, a, b)
            exact, _ = O.kubo_ando_mean(np.sqrt, a, b)
            # A # B - A #_m B = A^(1/2) (sqrt(C) - f_m(C)) A^(1/2)
            quad = np.linalg.norm(a, 2) * float(np.abs(f(mu) - np.sqrt(mu)).max())
            self._refs[(n, m)] = (ref, exact, quad, O.mean_bound(a, b, np.abs(ref).max()))
        return self._refs[(n, m)]

    def round(self, tracer=None) -> Round:
        rnd, lab = Round(), self.lab
        for key, f, orders, tag in (("sqrt", self.sqrt, PATH_ORDERS, ""),
                                    ("kernel", self.kernel, PATH_ORDERS, ""),
                                    ("mix", self.mix, MIX_ORDERS, "mix.")):
            for n in orders:
                path = self.paths[n][2]
                d1 = rnd.run(f"calculus.path_derivative_ms.{tag}n{n}",
                             lambda: lab.path_derivative(f, path, 0.0))
                d2 = rnd.run(f"calculus.path_second_derivative_ms.{tag}n{n}",
                             lambda: lab.path_second_derivative(f, path, 0.0))
                r1, r2, (b1, b2) = self._path_ref(key, n)
                for got, ref, bound, what in ((d1, r1, b1, "D"), (d2, r2, b2, "D2")):
                    if got is not None:
                        err = float(np.abs(got.entries - ref).max())
                        rnd.expect(err <= bound, f"{what} of {key} at n={n}: {err:.3e} > {bound:.3e}")
        for n in MEAN_ORDERS:
            _, _, am, bm = self.pairs[n]
            for m, spec in self.specs.items():
                got = rnd.run(f"connections.evaluate_connection_ms.n{n}.m{m}",
                              lambda: lab.evaluate_connection(spec, am, bm))
                if got is None:
                    continue
                ref, exact, quad, bound = self._mean_ref(n, m)
                err = float(np.abs(got.entries - ref).max())
                rnd.expect(err <= bound, f"mean m={m} n={n} vs congruence: {err:.3e}")
                if m >= 50:
                    err = float(np.linalg.norm(got.entries - exact, 2))
                    rnd.expect(err <= quad * (1 + 1e-6) + bound,
                               f"mean m={m} n={n} vs exact geometric: {err:.3e}")
            got = rnd.run(f"connections.geometric_mean_closed_form_ms.n{n}",
                          lambda: lab.geometric_mean_closed_form(am, bm))
            if got is not None:
                _, exact, _, bound = self._mean_ref(n, 200)
                err = float(np.abs(got.entries - exact).max())
                rnd.expect(err <= bound, f"closed-form geometric mean n={n}: {err:.3e}")
        if tracer is not None:
            self._probe(rnd, tracer)
        return rnd

    def _probe(self, rnd: Round, tracer):
        """Layer probes of the traced run; not operations of the workload."""
        lab = self.lab
        for n in PATH_ORDERS:
            a, _, path = self.paths[n]
            eigs = np.linalg.eigvalsh(a)
            ns = lab.NodeSet(tuple(eigs), lab.POSITIVE_AXIS)
            fmax, g = math.sqrt(eigs.max()), O.min_gap(eigs)
            m1 = lab.loewner_matrix(self.sqrt, ns).entries
            err = float(np.abs(m1 - O.loewner_matrix("sqrt", eigs)).max())
            rnd.expect(err <= 64 * O.EPS * (1 + fmax / g), f"Loewner matrix n={n}: {err:.3e}")
            m2 = lab.second_dd_matrix(self.sqrt, ns, anchor=float(eigs[0])).entries
            err = float(np.abs(m2 - O.anchored_matrix("sqrt", eigs, eigs[0])).max())
            rnd.expect(err <= 64 * O.EPS * (1 + fmax / g**2), f"anchored matrix n={n}: {err:.3e}")
            counter = [0]
            lab.path_second_derivative(_counted(lab, self.sqrt, counter), path, 0.0)
            tracer.count(f"functions.scalar_evals_per_second_derivative.n{n}", counter[0])


# ---------------------------------------------------------------------------
# check_loop

MEMBERS = ("sqrt", "power:0.25", "kernel:0.5", "harmonic_rep", "id")


def _cases():
    """(function, checker, verdict the theorem forces), seed-independent only.

    Operator monotone members pass the order-n, direct and midpoint checks
    (operator monotone on (0, inf) implies operator concave).  Their convex
    check fails on the first trial by f''(t_1) < 0, except for id.  square,
    cube and exp already fail order 2 (2x2 Loewner determinants are
    negative); cube fails convexity (rank-two [t_i + t_j + t_1]); all three
    fail midpoint concavity, since tr f is strictly convex.  Left out:
    monotone-direct on the non-members and convex on square and exp, whose
    outcome depends on the seed.
    """
    cases = []
    for f in MEMBERS:
        cases += [(f, "check_monotone_order_n", "pass"),
                  (f, "check_convex_order_n", "pass" if f == "id" else "fail"),
                  (f, "check_monotone_direct", "pass"),
                  (f, "check_midpoint_concavity", "pass")]
    for f in ("square", "cube", "exp"):
        cases += [(f, "check_monotone_order_n", "fail"),
                  (f, "check_midpoint_concavity", "fail")]
    cases.append(("cube", "check_convex_order_n", "fail"))
    return tuple(cases)


CASES = _cases()


class CheckLoop:
    name = "check_loop"
    TRIALS = 100

    def __init__(self, lab, seed: int):
        self.lab, self.seed = lab, seed
        self.iv = lab.Interval(0.1, 10.0)
        self.fns = {name: lab.get_function(name) for name, _, _ in CASES}

    def warm_up(self):
        self.lab.check_monotone_order_n(self.fns["sqrt"], 2, self.iv, self.TRIALS, self.seed)

    def round(self, tracer=None) -> Round:
        rnd = Round()
        for n in CHECK_ORDERS:
            for name, checker, expected in CASES:
                fn, f = getattr(self.lab, checker), self.fns[name]
                v = rnd.run(f"monotonicity.{checker}_us_per_trial.o{n}",
                            lambda: fn(f, n, self.iv, self.TRIALS, self.seed), work=self.TRIALS)
                if v is not None:
                    self.check(rnd, v, name, checker, n, expected)
        return rnd

    def check(self, rnd: Round, v, name, checker, n, expected):
        what = f"{checker}({name}, order {n})"
        rnd.expect(v.outcome == expected, f"{what}: {v.outcome}, theorem says {expected}")
        rnd.expect(v.order == n and v.trials == self.TRIALS, f"{what}: order/trials echo")
        if v.outcome != "fail" or expected != "fail":
            return
        if checker == "check_monotone_order_n":
            margin = O.scaled_min_eig(O.loewner_matrix(name, v.witness.nodes))
        elif checker == "check_convex_order_n":
            t, cf = v.witness.nodes, O.closed_form(name)
            margin = (O.scaled_min_eig(O.anchored_matrix(name, t, t[0])) if cf.dd2
                      else float(cf.d2(t[0])))  # diagonal entry f''(t_1)/2 < 0
        else:
            a, b = (w.entries for w in v.witness)
            gap = O.matrix_function(name, (a + b) / 2) - (
                O.matrix_function(name, a) + O.matrix_function(name, b)) / 2
            margin = O.scaled_min_eig(gap)
        rnd.expect(margin < -PSD_TOL, f"{what}: witness not confirmed ({margin:.3e})")


WORKLOADS = {w.name: w for w in (Report, LargeOrder, CheckLoop)}
