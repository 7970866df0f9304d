"""The four seeded workloads and the per-job oracle.

A workload builds its inputs one round at a time from (seed, round);
a round is a fixed list of jobs whose sizes do not depend on the seed,
so runs with different seeds do the same amount of work.  Each job is
timed on its own; its check runs afterwards, untimed, and returns None
when the result matches the oracle or a short reason when it does not.

Jobs reach liegeom through attribute lookups on the imported package
at call time (lg.cli.run_command, lg.lee_form_solve, ...), so the
traced run sees every call.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import gen


class Job:
    __slots__ = ("kind", "run", "check", "replayable")

    def __init__(self, kind, run, check, replayable=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.replayable = replayable


def cli_run(lg, argv, output=None):
    """One CLI invocation: (exit code, stdout, stderr, written file)."""
    out, err = io.StringIO(), io.StringIO()
    rc = lg.cli.run_command(argv, out, err)
    written = None
    if output is not None and rc == 0:
        with open(output, encoding="utf-8") as handle:
            written = handle.read()
    return rc, out.getvalue(), err.getvalue(), written


def _stored_residual(raw):
    if isinstance(raw, list):
        return tuple(Fraction(v) for v in raw)
    return Fraction(raw)


def recheck(lg, report, pieces):
    """witness_residual for every witness of a verify --format json
    report; returns (recomputed, stored) residual pairs."""
    lee = None
    if report.get("lee_form") is not None:
        lee = lg.KForm.from_components(
            report["dim"], 1, {(i,): Fraction(v) for i, v in report["lee_form"]})
    pairs = []
    for w in report["witnesses"]:
        stored = _stored_residual(w["residual"])
        witness = lg.Witness(w["claim"], tuple(w["indices"]), stored,
                             tuple(Fraction(v) for v in w["detail"]))
        pairs.append((lg.witness_residual(witness, lee_form=lee, **pieces),
                      stored))
    return pairs


def doc_pieces(doc):
    algebra = doc.to_algebra()
    return {"algebra": algebra, "connection": doc.to_connection(algebra),
            "metric": doc.to_metric(algebra),
            "complex_structure": doc.to_complex_structure(algebra),
            "omega": doc.to_form("omega")}


def _residuals_match(pairs):
    bad = [i for i, (got, want) in enumerate(pairs) if got != want]
    return None if not bad else f"witness residuals differ at {bad}"


def _json_lee(report):
    return [[i, str(Fraction(v))] for i, v in report["lee_form"] or []]


class Workload:
    name = ""
    # job kinds the self-test runs: the workload at its smallest size
    smoke_kinds = None

    def __init__(self, lg, seed, workdir):
        self.lg = lg
        self.seed = seed
        self.workdir = workdir

    def rng(self, r):
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def make_round(self, r):
        raise NotImplementedError

    def info(self, latencies):
        """Extra human-readable lines: {name: value}."""
        return {}


# -- catalog-chain ---------------------------------------------------------

def _positive_t(rng):
    return Fraction(rng.randint(1, 5), rng.randint(1, 4))


class CatalogChain(Workload):
    """The paper's chain on every catalog entry, through the CLI."""

    name = "catalog-chain"

    def _entries(self, rng):
        """(name, params, curvature used by construct lck, --c argument,
        whether the lck member is the Kahler one); the Kahler share is
        fixed at 2 of the 5 statistical entries so that every round has
        the same mix of passing and failing claims."""
        half = Fraction(1, 2)
        clan_c = rng.choice([half, Fraction(1), Fraction(2), Fraction(3),
                             Fraction(3, 2), Fraction(2, 3)])
        so2_c = Fraction(rng.choice([-2, -1, -half, half, 1, 2]))
        return [("clan-triangular", {"c": clan_c}, -clan_c, None, True),
                ("so2", {}, so2_c, so2_c, False),
                ("su2", {}, Fraction(1), None, False),
                ("abelian-n", {"n": Fraction(2)}, Fraction(0), None, False),
                ("flat-torsionful-fixture", {}, None, None, False),
                ("nonflat-fixture", {}, Fraction(-1), None, True)]

    def make_round(self, r):
        lg = self.lg
        rng = self.rng(r)
        jobs = []
        for name, params, c, c_arg, kahler in self._entries(rng):
            entry = lg.get_example(name, params)
            expected = {e.check: e.outcome for e in entry.expected}
            query = "&".join(f"{k}={v}" for k, v in params.items())
            src = f"catalog:{name}" + (f"?{query}" if query else "")
            jobs.append(self._run_check_job(name, params))
            jobs.append(self._rc_job(
                "verify-statistical", ["verify", "--as", "statistical", src],
                expected["statistical"] == "pass"))
            jobs.append(self._rc_job(
                "construct-double", ["construct", "double", src],
                expected["double_jacobi"] == "pass"))
            jobs.append(self._rc_job(
                "construct-kahler", ["construct", "kahler", src],
                expected.get("hessian") == "pass"))
            statistical = expected["statistical"] == "pass"
            if kahler:
                t = -1 / c
            else:
                t = _positive_t(rng)
                while c is not None and 1 + c * t == 0:
                    t = _positive_t(rng)
            jobs.extend(self._lck_jobs(src, entry, c, c_arg, t, statistical))
        return jobs

    def _run_check_job(self, name, params):
        lg = self.lg

        def run():
            entry = lg.get_example(name, params)
            return [(e.outcome, lg.run_check(entry, e.check))
                    for e in entry.expected]

        def check(pairs):
            bad = [want for want, got in pairs if want != got]
            return None if not bad else f"run_check disagrees with {bad}"

        return Job("run-check", run, check)

    def _rc_job(self, kind, argv, passes):
        lg = self.lg
        want = 0 if passes else 1

        def check(result):
            return None if result[0] == want else (
                f"{' '.join(argv)}: exit {result[0]}, expected {want}")

        return Job(kind, lambda: cli_run(lg, argv), check, replayable=True)

    def _lck_jobs(self, src, entry, c, c_arg, t, statistical):
        lg = self.lg
        path = str(self.workdir / f"{entry.name}.json")
        argv = ["construct", "lck", src, f"--t={t}", "-o", path]
        if c_arg is not None:
            argv.append(f"--c={c_arg}")     # "=" keeps "-1/2" a value
        if not statistical:
            return [self._rc_job("construct-lck", argv, False)]
        rho = entry.algebra.dim
        lee = -(1 + c * t)
        want_lee = [] if lee == 0 else [[rho, str(lee)]]
        kahler = lee == 0
        reports = {}

        def check_construct(result):
            rc, _, _, text = result
            if rc != 0:
                return f"construct lck exit {rc}"
            doc = json.loads(text)
            blocks = {f["name"]: f["entries"] for f in doc["forms"]}
            got = [[i, str(Fraction(v))] for i, v in blocks["lee_form"]]
            if got != want_lee:
                return f"construct lck Lee form {got}, expected {want_lee}"
            if (Fraction(doc["parameters"]["c"]), Fraction(doc["parameters"]["t"])) != (
                    c, t):
                return "construct lck parameters differ"
            return None

        def verify(mode):
            def run():
                result = cli_run(lg, ["verify", "--as", mode, path,
                                      "--format", "json"])
                reports[mode] = result[1]
                return result
            return run

        def check_verify(mode, passes):
            def check(result):
                rc, out, _, _ = result
                if rc != (0 if passes else 1):
                    return f"verify --as {mode} exit {rc}"
                report = json.loads(out)
                if _json_lee(report) != want_lee:
                    return f"verify Lee form {_json_lee(report)}"
                if report["flags"]["kahler"] != kahler:
                    return "is_kahler does not match 1 + c t = 0"
                return None
            return check

        def recheck_job(mode):
            def run():
                with open(path, encoding="utf-8") as handle:
                    doc = lg.parse(handle.read())
                return recheck(lg, json.loads(reports[mode]),
                               doc_pieces(doc))
            return Job("recheck", run, _residuals_match)

        return [
            Job("construct-lck", lambda: cli_run(lg, argv, path),
                check_construct, replayable=True),
            Job("verify-lck", verify("lck"), check_verify("lck", True)),
            recheck_job("lck"),
            Job("verify-kahler", verify("kahler"),
                check_verify("kahler", kahler)),
            recheck_job("kahler"),
        ]


# -- abelian-sweep ---------------------------------------------------------

SWEEP_N = (2, 3, 4)        # double dimensions 6, 8, 10


class AbelianSweep(Workload):
    """lck_family plus CLI verify --as lck on abelian-n, n = 2..4."""

    name = "abelian-sweep"
    smoke_kinds = ("chain.d6",)

    def make_round(self, r):
        rng = self.rng(r)
        return [self._chain(n, _positive_t(rng)) for n in SWEEP_N]

    def _chain(self, n, t):
        lg = self.lg
        entry = lg.get_example("abelian-n", {"n": n})
        path = str(self.workdir / f"abelian-{n}.json")
        want_lee = [[n, str(Fraction(-1))]]     # c = 0: -(1 + c t) = -1

        def run():
            fam = lg.lck_family(entry.algebra, entry.connection,
                                entry.metric, 0, t)
            doc = lg.document_from(
                fam.double.algebra,
                complex_structure=fam.double.complex_structure,
                forms=(("lee_form", fam.lee_form), ("omega", fam.omega)),
                parameters={"c": fam.c, "t": fam.t})
            text = lg.serialize(doc)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return (fam.lee_form, fam.report.is_kahler, text,
                    cli_run(lg, ["verify", "--as", "lck", path,
                                 "--format", "json"]))

        def check(result):
            lee, kahler, _, (rc, out, _, _) = result
            got = [[i, str(v)] for (i,), v in lee.components()]
            if got != want_lee or kahler:
                return f"lck_family Lee form {got}"
            report = json.loads(out)
            if rc != 0 or _json_lee(report) != want_lee:
                return f"verify --as lck exit {rc}, Lee {_json_lee(report)}"
            return None

        return Job(f"chain.d{2 * n + 2}", run, check, replayable=True)

    def info(self, latencies):
        out = {}
        for n in SWEEP_N:
            kind = f"chain.d{2 * n + 2}"
            values = sorted(latencies.get(kind, []))
            if values:
                out[f"chain_s.d{2 * n + 2}"] = values[(len(values) - 1) // 2]
        return out


# -- dense-documents -------------------------------------------------------

# one round: (dim, Jacobi-valid, indefinite metric)
DENSE_ROUND = ((4, True, False), (4, True, False), (4, True, True),
               (4, False, False), (4, True, False),
               (6, True, False), (6, False, False), (6, True, False))


class DenseDocuments(Workload):
    """Seeded dense documents: parse, CLI verify --as lck, recheck."""

    name = "dense-documents"
    smoke_kinds = ("document.d4",)

    def make_round(self, r):
        rng = self.rng(r)
        jobs = []
        for pos, (dim, valid, indefinite) in enumerate(DENSE_ROUND):
            text, facts = gen.dense_document(rng, dim, valid, indefinite)
            self.lg.parse(text)     # every generated document is accepted
            path = self.workdir / f"dense-{r}-{pos}.json"
            path.write_text(text, encoding="utf-8")
            jobs.append(self._job(text, str(path), facts))
        return jobs

    def _job(self, text, path, facts):
        lg = self.lg
        argv = ["verify", "--as", "lck", path, "--format", "json"]

        def run():
            doc = lg.parse(text)
            rc, out, _, _ = cli_run(lg, argv)
            return rc, out, recheck(lg, json.loads(out), doc_pieces(doc))

        def check(result):
            rc, out, pairs = result
            report = json.loads(out)
            if rc != 1 or report["verdict"] != "fail":
                return f"verify --as lck exit {rc}, expected 1"
            flags = report["flags"]
            if flags["jacobi"] != facts["jacobi"]:
                return "Jacobi verdict differs from the generator"
            if flags["metric_positive"] != facts["positive"]:
                return "positivity verdict differs from the generator"
            if flags["pairing_positive"]:
                return "an asymmetric pairing was reported positive"
            if not facts["jacobi"]:
                first = report["witnesses"][0]
                got = (first["claim"], first["indices"],
                       [Fraction(v) for v in first["residual"]])
                if got != ("jacobi", [0, 1, 2], facts["jacobi_residual"]):
                    return "Jacobi witness differs from the generator's"
            return _residuals_match(pairs)

        return Job(f"document.d{facts['dim']}", run, check, replayable=True)


# -- lee-systems -----------------------------------------------------------

LEE_FEASIBLE_M = (3, 4, 5)     # dims 8, 10, 12
LEE_INFEASIBLE_M = (3, 4)      # dims 8, 10
POSITIVITY_DIMS = (12, 16, 20, 24)


class LeeSystems(Workload):
    """Library-level Lee solves and Sylvester positivity."""

    name = "lee-systems"
    smoke_kinds = ("lee.d8", "lee-infeasible.d8", "positivity.d12")

    def __init__(self, lg, seed, workdir):
        super().__init__(lg, seed, workdir)
        self._bases = {}

    def _algebra(self, c):
        n = len(c)
        table = {(i, j): {k: c[i][j][k] for k in range(n) if c[i][j][k]}
                 for i in range(n) for j in range(i + 1, n) if any(c[i][j])}
        return self.lg.LieAlgebra.from_brackets(
            [f"e{i + 1}" for i in range(n)], table)

    def _abelian(self, n):
        if n not in self._bases:
            self._bases[n] = self.lg.LieAlgebra.abelian(
                [f"e{i + 1}" for i in range(n)])
        return self._bases[n]

    def make_round(self, r):
        rng = self.rng(r)
        jobs = []
        for m in LEE_FEASIBLE_M:
            c, w, theta = gen.lee_feasible(rng, m)
            jobs.append(self._feasible(c, w, theta))
        for m in LEE_INFEASIBLE_M:
            jobs.append(self._infeasible(*gen.lee_infeasible(rng, m)))
        for n in POSITIVITY_DIMS:
            for positive in (True, False):
                g = (gen.pd_metric(rng, n) if positive
                     else gen.indefinite_metric(rng, n))
                if all(x > 0 for x in gen.leading_minors(g)) != positive:
                    raise AssertionError("metric positivity off its share")
                jobs.append(self._positivity(g, positive))
        return jobs

    def _feasible(self, c, w, theta):
        lg = self.lg
        n = len(c)
        algebra = self._algebra(c)
        omega = lg.KForm.from_components(n, 2, w)

        def check(solution):
            if solution is None:
                return "feasible Lee system reported infeasible"
            got = [solution.coefficients[(i,)] for i in range(n)]
            return None if got == theta else "Lee form differs from theta"

        return Job(f"lee.d{n}", lambda: lg.lee_form_solve(algebra, omega),
                   check)

    def _infeasible(self, c, w):
        lg = self.lg
        n = len(c)
        algebra = self._algebra(c)
        omega = lg.KForm.from_components(n, 2, w)
        rows, rhs = gen.lee_rows(c, w)

        def run():
            if lg.lee_form_solve(algebra, omega) is not None:
                return None
            system, b, _ = lg.geometry.lee_form_system(algebra, omega)
            cert = lg.solve_linear(system, b)
            witness = lg.Witness("lee_system", (), cert.residual,
                                 cert.combination)
            return cert, lg.witness_residual(witness, algebra=algebra,
                                             omega=omega)

        def check(result):
            if result is None:
                return "infeasible Lee system reported solvable"
            cert, residual = result
            y = cert.combination
            if any(sum(yi * row[k] for yi, row in zip(y, rows)) != 0
                   for k in range(n)):
                return "certificate is not a left null vector"
            value = sum(yi * bi for yi, bi in zip(y, rhs))
            if value == 0 or not value == cert.residual == residual:
                return "certificate residual does not recheck"
            return None

        return Job(f"lee-infeasible.d{n}", run, check)

    def _positivity(self, g, positive):
        lg = self.lg
        n = len(g)
        metric = lg.Metric.from_rows(self._abelian(n), g)
        return Job(f"positivity.d{n}", metric.is_positive_definite,
                   lambda got: None if got == positive else
                   f"is_positive_definite {got}, expected {positive}")


WORKLOADS = {cls.name: cls for cls in
             (CatalogChain, AbelianSweep, DenseDocuments, LeeSystems)}
