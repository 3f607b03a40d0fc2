"""The benchmark's workloads: arrangement, chain and interactive.

Each workload generates its inputs from the seed in ``setup``, runs op
number i of its cycle of inputs in ``op(i)`` and returns that op's latency
in seconds, and checks every op's outputs against the closed forms in
``oracles``.  The exact outputs of every op are hashed; an op whose key
(case, or chain and step) was seen before must reproduce the first hash,
and ``digest`` folds the hashes of one whole cycle.

Single client, closed loop: one process, no worker threads, CLI
subprocesses one at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

from ncmilnor import blowup, cli, logspace, model, ring

import gen
import oracles
from stats import grouped_slope, loglog_slope, median

MAX_PROBLEMS = 20


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariance_checks(report, invariant, zeta, euler, absolute) -> list[tuple]:
    """(label, got, expected) for an invariance report against closed forms."""
    return [
        ("all_invariant", invariant, True),
        ("zeta before", report.zeta_before.factors, zeta),
        ("zeta after", report.zeta_after.factors, zeta),
        ("euler before", report.euler_before, euler),
        ("euler after", report.euler_after, euler),
        ("absolute before", report.absolute_before.coeffs, absolute),
        ("absolute after", report.absolute_after.coeffs, absolute),
    ]


def mismatches(key: str, checks) -> list[str]:
    return [f"{key} {label}: got {got}, expected {want}" for label, got, want in checks
            if got != want]


def exact_outputs(report, checks) -> str:
    """The exact results of an invariance check in a canonical text form:
    the checked values and both keyed classes, keys in increasing order."""
    keyed = [[(key, poly.coeffs) for key, poly in k]
             for k in (report.keyed_before, report.keyed_after)]
    return repr(([got for _, got, _ in checks], keyed))


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.tracer = None  # set while a traced pass runs
        self.numeric_s = 0.0  # in-process numeric batches, not part of any op
        self.numeric_points = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}
        self.probe_results: dict[str, list[str]] = {}  # known-defect probe: problems

    def rng(self, tag: str = "") -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def record(self, key: str, outputs: str, problems: list[str]) -> None:
        """Account one op: its oracle problems and the hash of its outputs."""
        self.attempted += 1
        digest = sha(outputs)
        if self.hashes.setdefault(key, digest) != digest:
            problems.append(f"{key}: output differs from the first run of this input")
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def fail(self, problem: str) -> None:
        """A check outside any op, such as a post-run reload."""
        self.failed += 1
        self.attempted += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def covered(self) -> bool:
        return all(key in self.hashes for key in self.digest_keys())

    def digest(self) -> str:
        return sha("\n".join(f"{key} {self.hashes.get(key, '-')}" for key in self.digest_keys()))

    # -- hooks

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the start of the op schedule."""

    def op(self, i: int) -> float:
        raise NotImplementedError

    def trace_op(self, i: int) -> float:
        return self.op(i)

    def cycle(self) -> int:
        """Ops in one cycle of the inputs; one cycle covers every digest key."""
        raise NotImplementedError

    def digest_keys(self) -> list[str]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after the measured ops."""

    def sizes(self) -> dict:
        return {}

    def scaling(self, ops: list[tuple[int, float]]) -> dict:
        return {}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of a traced run that spans do not give."""
        return {}


# ---------------------------------------------------------------------------

@dataclass
class ArrangementCase:
    key: str
    n: int
    mults: list[int]
    center: dict
    model_path: Path
    center_path: Path
    out_path: Path
    doc_bytes: int = 0


class Arrangement(Workload):
    name = "arrangement"
    SIZES = (8, 9, 10)
    VARIANTS = 3  # seeded models and centres per size, so a cycle is 9 ops

    def setup(self) -> None:
        rng = self.rng()
        self.cases = []
        for v in range(self.VARIANTS):
            for n in self.SIZES:
                mults = list(range(1, n + 1))
                rng.shuffle(mults)
                key = f"H{n}.{v}"
                case = ArrangementCase(key, n, mults, gen.arrangement_center(rng, n),
                                       self.work / f"{key}.json",
                                       self.work / f"{key}-center.json",
                                       self.work / f"{key}-blown.json")
                text = gen.dumps(gen.arrangement_doc(mults))
                case.model_path.write_text(text, encoding="utf-8")
                case.center_path.write_text(gen.dumps(case.center), encoding="utf-8")
                case.doc_bytes = len(text)
                self.cases.append(case)
        self.run_case(self.cases[0])  # warm-up

    def cycle(self) -> int:
        return len(self.cases)

    def digest_keys(self) -> list[str]:
        return [case.key for case in self.cases]

    def run_case(self, case: ArrangementCase):
        start = perf_counter()
        m = model.load_model(case.model_path.read_text(encoding="utf-8"))
        center = blowup.load_center(case.center_path.read_text(encoding="utf-8"))
        report = blowup.check_invariance(m, center)
        invariant = report.all_invariant
        text = model.save_model(blowup.apply_blowup(m, center))
        case.out_path.write_text(text, encoding="utf-8")
        return perf_counter() - start, report, invariant, text

    def op(self, i: int) -> float:
        case = self.cases[i]
        elapsed, report, invariant, text = self.run_case(case)
        checks = invariance_checks(report, invariant, (), 0,
                                   oracles.arrangement_absolute(case.n))
        self.record(case.key, exact_outputs(report, checks) + sha(text),
                    mismatches(case.key, checks))
        return elapsed

    def finish(self) -> None:
        """The last blown document of each case reloads, validates, and has
        the exceptional multiplicity and stratum count of the closed forms."""
        for case in self.cases:
            blown = model.load_model(case.out_path.read_text(encoding="utf-8"))
            want_mult = sum(case.mults[int(cid[1:])] for cid in case.center["K"])
            want_strata = gen.arrangement_blown_strata(case.n, case.center)
            if blown.multiplicity("E") != want_mult or len(blown.strata) != want_strata:
                self.fail(f"{case.key} blown: multiplicity {blown.multiplicity('E')} "
                          f"(expected {want_mult}), {len(blown.strata)} strata "
                          f"(expected {want_strata})")

    def sizes(self) -> dict:
        return {c.key: {"strata": 2 ** c.n - 1, "components": c.n, "max_multiplicity": c.n,
                        "doc_bytes": c.doc_bytes, "center_K": len(c.center["K"]),
                        "center_pieces": len(c.center["center_strata"])}
                for c in self.cases}

    def scaling(self, ops: list[tuple[int, float]]) -> dict:
        by_n: dict[int, list[float]] = {}
        for i, seconds in ops:
            by_n.setdefault(self.cases[i].n, []).append(seconds * 1e3)
        rows = {f"H{n}": {"strata": 2 ** n - 1, "op_p50_ms": median(ms), "ops": len(ms)}
                for n, ms in sorted(by_n.items())}
        slope = loglog_slope([(r["strata"], r["op_p50_ms"]) for r in rows.values()])
        return {"by_strata": rows, "op_ms_strata_exponent": slope}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    name: str
    start: str  # "two_axes" or "cusp"
    point_share: float
    length: int
    target_pq: int = 0


@dataclass
class Chain:
    spec: ChainSpec
    doc_text: str
    first_pair: tuple[str, str]
    p: int = 0
    q: int = 0
    model: object = None
    seq: list[str] = field(default_factory=list)
    mults: dict[str, int] = field(default_factory=dict)
    step: int = 0
    rng: random.Random | None = None


class ChainWorkload(Workload):
    """One cycle runs every chain from its start to its full length, the
    chains' steps evenly interleaved; every cycle repeats the same steps, so
    the op mix of a run does not depend on how many cycles fit in it."""

    name = "chain"
    SPECS = (
        ChainSpec("fib", "two_axes", 0.0, 90),
        ChainSpec("mixed", "two_axes", 0.25, 90),
        ChainSpec("cusp_1e3", "cusp", 0.25, 30, 1_000),
        ChainSpec("cusp_1e4", "cusp", 0.25, 20, 10_000),
        ChainSpec("cusp_1e5", "cusp", 0.25, 10, 100_000),
    )

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.one = ring.LefschetzPoly((1,))
        # step k of a chain of length n runs at (k + 1/2) / n of the cycle
        self.schedule = [name for _, name in sorted(
            ((k + 0.5) / spec.length, spec.name) for spec in self.SPECS
            for k in range(spec.length))]
        self.step_log: list[tuple[str, int, float]] = []
        # peak RSS after the first set-up's first step of each chain, in
        # increasing pq: how memory follows the multiplicities
        self.rss_after_first_step: dict[str, float] = {}

    def setup(self) -> None:
        self.chains: dict[str, Chain] = {}
        for spec in self.SPECS:
            rng = self.rng(spec.name)
            if spec.start == "two_axes":
                a, b = rng.randint(1, 9), rng.randint(1, 9)
                doc, pair, p, q = gen.two_axes_doc(a, b), ("x", "y"), a, b
            else:
                p, q = gen.coprime_pair(rng, spec.target_pq)
                doc, pair = gen.cusp_doc(p, q), (f"e{q}", f"e{p * q}")
            text = gen.dumps(doc)
            (self.work / f"{spec.name}.json").write_text(text, encoding="utf-8")
            self.chains[spec.name] = Chain(spec, text, pair, p, q)
        self.reset()
        for spec in sorted(self.SPECS, key=lambda s: s.target_pq):  # warm-up
            self.step(self.chains[spec.name])
            self.rss_after_first_step.setdefault(spec.name, peak_rss_mb())
        self.reset()
        self.step_log.clear()

    def reset(self) -> None:
        for chain in self.chains.values():
            chain.model = model.load_model(chain.doc_text)
            chain.seq = list(chain.first_pair)
            chain.mults = {c.id: c.multiplicity for c in chain.model.components}
            chain.step = 0
            chain.rng = self.rng(f"{chain.spec.name}/plan")

    def cycle(self) -> int:
        return len(self.schedule)

    def digest_keys(self) -> list[str]:
        return [f"{spec.name}/{k:03d}" for spec in self.SPECS for k in range(spec.length)]

    def op(self, i: int) -> float:
        return self.step(self.chains[self.schedule[i]])

    def step(self, chain: Chain) -> float:
        step = chain.step
        if step > 0 and chain.rng.random() < chain.spec.point_share:
            contained = [chain.seq[-1]]  # a point on the newest curve's open part
        else:
            contained = chain.seq[-2:]  # the newest corner
        new_id = f"E{step}"
        want_mult = sum(chain.mults[c] for c in contained)
        center = blowup.CenterSpec(contained, (), 2, {frozenset(): self.one}, new_id)

        start = perf_counter()
        report = blowup.check_invariance(chain.model, center)
        invariant = report.all_invariant
        blown = blowup.apply_blowup(chain.model, center)
        elapsed = perf_counter() - start

        if chain.spec.start == "cusp":
            zeta, euler = oracles.cusp_zeta(chain.p, chain.q), oracles.cusp_euler(chain.p, chain.q)
            absolute = oracles.CUSP_ABSOLUTE
        else:
            zeta, euler, absolute = (), 0, oracles.TWO_AXES_ABSOLUTE
        checks = invariance_checks(report, invariant, zeta, euler, absolute)
        checks.append(("new multiplicity", blown.multiplicity(new_id), want_mult))
        key = f"{chain.spec.name}/{step:03d}"
        self.record(key, exact_outputs(report, checks) + f" {len(blown.strata)}",
                    mismatches(key, checks))

        if len(contained) == 2:
            chain.seq.append(new_id)
        chain.mults[new_id] = want_mult
        chain.model = blown
        chain.step += 1
        if self.tracer is None:
            self.step_log.append((chain.spec.name, step, elapsed))
        return elapsed

    def layer_metrics(self) -> dict[str, float]:
        return {"blowup.step_ms.slope": self._step_slope()}

    def _step_slope(self) -> float:
        """ms per step of chain index, one intercept per chain."""
        return grouped_slope([(name, step, s * 1e3) for name, step, s in self.step_log])

    def sizes(self) -> dict:
        out = {}
        for name, chain in self.chains.items():
            start = model.load_model(chain.doc_text)
            out[name] = {
                "strata": len(start.strata), "components": len(start.components),
                "max_multiplicity": max(c.multiplicity for c in start.components),
                "doc_bytes": len(chain.doc_text), "chain_length": chain.spec.length,
                "p_or_a": chain.p, "q_or_b": chain.q,
                "zeta_terms": sum(n * abs(e) for n, e in oracles.cusp_zeta(chain.p, chain.q))
                if chain.spec.start == "cusp" else 0}
        return out

    def scaling(self, ops: list[tuple[int, float]]) -> dict:
        by_chain: dict[str, dict[int, list[float]]] = {}
        for name, step, seconds in self.step_log:
            by_chain.setdefault(name, {}).setdefault(step, []).append(seconds * 1e3)
        out = {"step_ms_slope": self._step_slope()}
        for name, steps in by_chain.items():
            chain = self.chains[name]
            marks = sorted(steps)[::max(1, len(steps) // 6)]
            row = {"step_ms_by_index": {k: round(median(steps[k]), 3) for k in marks},
                   "max_multiplicity_reached": float(max(chain.mults.values())),
                   "strata_reached": len(chain.model.strata),
                   "peak_rss_mb_after_first_step": self.rss_after_first_step.get(name)}
            if chain.spec.start == "cusp":
                row["pq"] = chain.p * chain.q
                row["zeta_dense_terms_per_step"] = 2 * sum(
                    n * abs(e) for n, e in oracles.cusp_zeta(chain.p, chain.q))
                row["step_ms_p50"] = median([ms for v in steps.values() for ms in v])
            out[name] = row
        return out


# ---------------------------------------------------------------------------

ENTRY = "import sys; from ncmilnor.cli import main; sys.exit(main())"
TRACEBACK = "Traceback (most recent call last)"
SUBCOMMANDS = ("validate", "census", "zeta", "euler", "motivic", "blowup", "invariance",
               "recover", "monodromy-demo", "examples")


@dataclass
class CliCase:
    key: str
    argv: list[str]
    check: object  # (code, stdout, stderr) -> list of problems

    @property
    def subcommand(self) -> str:
        return _subcommand(self.argv)


def _subcommand(argv: list[str]) -> str:
    return next(a for a in argv if not a.startswith("--"))


@dataclass
class NumericPoint:
    key: str
    ctx: object
    base: tuple
    radii: list[float]
    phases: list[complex]
    mults: list[int]
    unit: complex
    lam: float
    samples: int


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def expect(code: int, stdout: str | None = None, contains: str | None = None,
           stderr_contains: str | None = None):
    """A checker for exit code and, optionally, exact stdout or fragments."""
    def check(got_code, out, err):
        problems = []
        if got_code != code:
            problems.append(f"exit {got_code}, expected {code}")
        if TRACEBACK in err:
            problems.append("traceback on stderr")
        if stdout is not None and out != stdout:
            problems.append(f"stdout {out[:120]!r}, expected {stdout[:120]!r}")
        if contains is not None and contains not in out:
            problems.append(f"stdout lacks {contains!r}")
        if stderr_contains is not None and stderr_contains not in err:
            problems.append(f"stderr lacks {stderr_contains!r}")
        return problems
    return check


def expect_json(check_payload):
    """Exit 0 and a JSON payload on which ``check_payload`` returns problems."""
    def check(code, out, err):
        if code != 0 or TRACEBACK in err:
            return [f"exit {code}, expected 0; stderr {err[-200:]!r}"]
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        return check_payload(payload)
    return check


def normal_doc(doc: dict) -> dict:
    """A model document with each stratum's ids sorted and strata as a set."""
    out = dict(doc)
    out["strata"] = sorted((sorted(s["components"]), s["class"]) for s in doc["strata"])
    return out


class Interactive(Workload):
    name = "interactive"
    CLI_OPS_PER_BATCH = 4
    ARITIES = range(2, 9)
    POINTS_PER_ARITY = 4

    def setup(self) -> None:
        rng = self.rng()
        self.env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        self.docs: dict[str, str] = {}
        self.cases = self._cases(rng)
        self.probes = self._probes(rng)
        for name, text in self.docs.items():
            (self.work / name).write_text(text, encoding="utf-8")
        self.points = self._points(self.rng("points"))
        self.batches = len(self.points) // len(self.ARITIES)
        self.subprocess(["validate", "cusp.json"])  # warm-up
        self.numeric_batch(0)
        self.numeric_s = 0.0
        self.numeric_points = 0

    def _write(self, name: str, doc) -> str:
        self.docs[name] = doc if isinstance(doc, str) else gen.dumps(doc)
        return name

    def _cases(self, rng) -> list[CliCase]:
        p = rng.randint(2, 7)
        q = next(v for v in range(rng.randint(p + 1, 13), 100) if gcd(p, v) == 1)
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        power = rng.randint(2, 24)
        n0, n1 = rng.randint(3, 4), rng.randint(3, 5)
        mults0, mults1 = rng.sample(range(1, n0 + 1), n0), rng.sample(range(1, n1 + 1), n1)
        center0 = gen.arrangement_center(rng, n0)
        center1 = gen.arrangement_center(rng, n1)
        ep, eq, epq = f"e{p}", f"e{q}", f"e{p * q}"

        cusp = self._write("cusp.json", gen.cusp_doc(p, q))
        corner = self._write("cusp-corner.json", gen.point_center_doc([eq, epq], 2, "E"))
        xayb = self._write("xayb.json", gen.two_axes_doc(a, b))
        origin = self._write("origin.json", gen.point_center_doc(["x", "y"], 2, "E"))
        pw = self._write("power.json", gen.power_doc(power))
        arr0 = self._write("corpus0.json", gen.arrangement_doc(mults0))
        arr0c = self._write("corpus0-center.json", center0)
        arr1 = self._write("corpus1.json", gen.arrangement_doc(mults1))
        arr1c = self._write("corpus1-center.json", center1)
        broken = gen.two_axes_doc(a, b)
        broken["strata"].append({"components": ["x"], "class": [0]})
        bad_zero = self._write("bad-zero.json", broken)
        bad_json = self._write("bad-json.json", gen.dumps(gen.power_doc(power))[:-9])
        extra = gen.power_doc(power)
        extra["colour"] = "blue"
        bad_field = self._write("bad-field.json", extra)
        bad_center = self._write("bad-center.json", gen.point_center_doc(["x"], 2, "E"))
        subset = sorted(rng.sample([f"h{i}" for i in range(n0)], rng.randint(2, n0)))
        theta = [oracles.rotation(rng.random()) for _ in range(2)]
        radii = [round(rng.uniform(0.5, 2.0), 6) for _ in range(2)]
        point = {"base": [[0, 0], [0, 0]],
                 "polar": [{"i": i, "r": radii[i], "theta": [theta[i].real, theta[i].imag]}
                           for i in range(2)]}
        steps = rng.randint(4, 16)
        power_theta = oracles.rotation(rng.random())
        power_point = {"base": [[0, 0]], "polar": [{"i": 0, "r": 1.0,
                                                    "theta": [power_theta.real, power_theta.imag]}]}
        blown0 = gen.arrangement_blown_strata(n0, center0)
        mult0 = sum(mults0[int(cid[1:])] for cid in center0["K"])
        examples_name = f"xa_yb_{a}_{b}"

        def motivic(absolute, terms):
            def check(payload):
                problems = []
                if payload["absolute"] != list(absolute):
                    problems.append(f"absolute {payload['absolute']}, expected {list(absolute)}")
                if len(payload["terms"]) != terms:
                    problems.append(f"{len(payload['terms'])} terms, expected {terms}")
                return problems
            return expect_json(check)

        def invariance(absolute, euler):
            def check(payload):
                problems = []
                if payload["all_equal"] is not True:
                    problems.append("all_equal is not true")
                if payload["absolute"]["before"] != list(absolute):
                    problems.append(f"absolute {payload['absolute']['before']}")
                if payload["euler"]["before"] != euler or payload["euler"]["after"] != euler:
                    problems.append(f"euler {payload['euler']}")
                return problems
            return expect_json(check)

        def recover(mults):
            def check(payload):
                problems = []
                got = [w["winding"] for w in payload["windings"]]
                if got != mults or payload["match"] is not True:
                    problems.append(f"windings {got}, expected {mults}")
                phase = complex(*payload["phase"])
                if not oracles.close(phase, 1.0, tol=oracles.PHASE_TOL):
                    problems.append(f"unit phase {phase}, expected 1")
                return problems
            return expect_json(check)

        def monodromy(start, count):
            def check(payload):
                rows = payload["rows"]
                if len(rows) != count + 1:
                    return [f"{len(rows)} rows, expected {count + 1}"]
                problems = []
                for k, row in enumerate(rows):
                    want = oracles.rotation(k / count) * start
                    if not oracles.close(complex(*row["sign_f"]), want, tol=oracles.PHASE_TOL):
                        problems.append(f"row {k}: sign f {row['sign_f']}, expected {want}")
                return problems[:3]
            return expect_json(check)

        def example(name, want_doc, out):
            plain = expect(0, f"wrote {name} to {out}\n")

            def check(code, stdout, stderr):
                problems = plain(code, stdout, stderr)
                path = self.work / out
                if not problems and normal_doc(json.loads(path.read_text())) != normal_doc(want_doc):
                    problems.append(f"{out} differs from the closed-form document")
                return problems
            return check

        xy_start = oracles.sign_from_phases(1.0, theta, [a, b])
        cases = [
            ("validate-cusp", ["validate", cusp], expect(0, "ok\n")),
            ("validate-xayb", ["validate", xayb], expect(0, "ok\n")),
            ("validate-corpus0", ["validate", arr0], expect(0, "ok\n")),
            ("census-cusp", ["census", cusp, "--stratum", f"{ep},{epq}"],
             expect(0, oracles.census_stdout([ep, epq]))),
            ("census-corpus0", ["census", arr0, "--stratum", ",".join(subset)],
             expect(0, oracles.census_stdout(subset))),
            ("zeta-cusp", ["zeta", cusp], expect(0, oracles.cusp_zeta_text(p, q) + "\n")),
            ("zeta-power", ["zeta", pw], expect(0, oracles.power_zeta_text(power) + "\n")),
            ("zeta-corpus1", ["zeta", arr1], expect(0, "1\n")),
            ("euler-cusp", ["euler", cusp], expect(0, f"{oracles.cusp_euler(p, q)}\n")),
            ("euler-power", ["euler", pw], expect(0, f"{power}\n")),
            ("euler-xayb", ["euler", xayb], expect(0, "0\n")),
            ("motivic-cusp", ["--json", "motivic", cusp], motivic(oracles.CUSP_ABSOLUTE, 6)),
            ("motivic-corpus1", ["--json", "motivic", arr1],
             motivic(oracles.arrangement_absolute(n1), 2 ** n1 - 1)),
            ("blowup-xayb", ["blowup", xayb, "--center", origin, "--out", "blown-xayb.json"],
             expect(0, f"wrote blown-xayb.json: component E with multiplicity {a + b}, "
                       f"3 strata\n")),
            ("blowup-corpus0", ["blowup", arr0, "--center", arr0c, "--out", "blown-corpus0.json"],
             expect(0, f"wrote blown-corpus0.json: component E with multiplicity {mult0}, "
                       f"{blown0} strata\n")),
            ("invariance-cusp", ["--json", "invariance", cusp, "--center", corner],
             invariance(oracles.CUSP_ABSOLUTE, oracles.cusp_euler(p, q))),
            ("invariance-corpus1", ["--json", "invariance", arr1, "--center", arr1c],
             invariance(oracles.arrangement_absolute(n1), 0)),
            ("invariance-xayb", ["invariance", xayb, "--center", origin],
             expect(0, contains="all realizations equal\n")),
            ("recover-xayb", ["--json", "recover", xayb, "--point", "[[0,0],[0,0]]"],
             recover([a, b])),
            ("recover-power", ["--json", "recover", pw, "--point", "[[0,0]]"], recover([power])),
            ("monodromy-xayb", ["--json", "monodromy-demo", xayb, "--point", json.dumps(point),
                                "--steps", str(steps)], monodromy(xy_start, steps)),
            ("monodromy-power", ["--json", "monodromy-demo", pw, "--point",
                                 json.dumps(power_point), "--steps", "8"],
             monodromy(power_theta**power, 8)),
            ("examples-xayb", ["examples", "--name", examples_name, "--out", "ex-xayb.json"],
             example(examples_name, gen.two_axes_doc(a, b), "ex-xayb.json")),
            ("examples-cusp", ["examples", "--name", "cusp_resolved", "--out", "ex-cusp.json"],
             example("cusp_resolved", gen.cusp_doc(2, 3), "ex-cusp.json")),
            ("examples-power", ["examples", "--name", f"power_{power}", "--out", "ex-power.json"],
             example(f"power_{power}", gen.power_doc(power), "ex-power.json")),
            # malformed inputs: exit 2 with a located error, never a traceback
            ("bad-zero-class", ["validate", bad_zero],
             expect(2, contains="empty stratum must be omitted")),
            ("bad-json", ["euler", bad_json], expect(2, "", stderr_contains="error: line")),
            ("bad-field", ["zeta", bad_field], expect(2, "", stderr_contains="unknown fields")),
            ("bad-center", ["invariance", xayb, "--center", bad_center],
             expect(2, "", stderr_contains="tracked locus")),
            ("bad-missing", ["motivic", "missing.json"], expect(2, "", stderr_contains="error:")),
            ("bad-example", ["examples", "--name", "nope", "--out", "ex-nope.json"],
             expect(2, "", stderr_contains="unknown example")),
        ]
        return [CliCase(key, argv, check) for key, argv, check in cases]

    def _probes(self, rng) -> list[CliCase]:
        """Inputs with known defects: run every time, reported apart from the
        workload's ops, each checked against the behaviour it should have."""
        big = rng.randint(32, 40)
        big_doc = self._write("big.json", gen.two_axes_doc(big, 1))
        nan_point = json.dumps({"base": [[0, 0], [0, 0]],
                                "polar": [{"i": 0, "r": 1.0, "theta": [float("nan"), 0.0]},
                                          {"i": 1, "r": 1.0, "theta": [1.0, 0.0]}]})
        ok_point = json.dumps({"base": [[0, 0], [0, 0]],
                               "polar": [{"i": 0, "r": 1.0, "theta": [1.0, 0.0]},
                                         {"i": 1, "r": 1.0, "theta": [0.0, 1.0]}]})

        def recovered(code, out, err):
            if code != 0 or f"winding {big}," not in out:
                return [f"exit {code}: multiplicity {big} not recovered at the default samples"]
            return []

        return [
            CliCase("probe-recover-mult-ge-32",
                    ["recover", big_doc, "--point", "[[0,0],[0,0]]"], recovered),
            CliCase("probe-recover-samples-4",
                    ["recover", "xayb.json", "--point", "[[0,0],[0,0]]", "--samples", "4"],
                    expect(2, "")),
            CliCase("probe-monodromy-steps-0",
                    ["monodromy-demo", "xayb.json", "--point", ok_point, "--steps", "0"],
                    expect(2, "")),
            CliCase("probe-nan-phase",
                    ["monodromy-demo", "xayb.json", "--point", nan_point], expect(2, "")),
        ]

    def _points(self, rng) -> list[NumericPoint]:
        points = []
        for variant in range(self.POINTS_PER_ARITY):
            for arity in self.ARITIES:
                extra = list(range(arity, arity + rng.randint(1, 2)))
                dim = arity + len(extra)
                terms = gen.chart_unit_terms(rng, dim, extra)
                unit = model.UnitPoly({e: (Fraction(c.real), Fraction(c.imag)) for e, c in terms})
                chart = model.Chart(dim, {i: f"d{i}" for i in range(arity)}, unit)
                mults = [rng.randint(1, 7) for _ in range(arity)]
                ctx = logspace.ChartContext(chart, dict(enumerate(mults)))
                base = tuple([0j] * arity + [rng.uniform(0.2, 1.0) * gen.random_phase(rng)
                                             for _ in extra])
                points.append(NumericPoint(
                    key=f"point/{variant}/{arity}", ctx=ctx, base=base,
                    radii=[rng.uniform(0.8, 1.25) for _ in range(arity)],
                    phases=[gen.random_phase(rng) for _ in range(arity)],
                    mults=mults, unit=gen.eval_unit(terms, base), lam=rng.random(),
                    samples=4 * max(mults) + 8))
        return points

    # -- ops

    def cycle(self) -> int:
        return len(self.cases)

    def digest_keys(self) -> list[str]:
        return [case.key for case in self.cases] + [pt.key for pt in self.points]

    def subprocess(self, argv: list[str]) -> tuple[int, str, str, float]:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=self.work,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, perf_counter() - start

    def inprocess(self, argv: list[str]) -> tuple[int, str, str, float]:
        """``ncmilnor.cli.main`` in this process, with the exit code a
        console script would give: SystemExit's code, or 1 and a traceback."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        span = (self.tracer.span(f"cli.main.{_subcommand(argv)}") if self.tracer
                else contextlib.nullcontext())
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an uncaught error is what the op reports
                    traceback.print_exc(file=err)
                    code = 1
        finally:
            elapsed = perf_counter() - start
            os.chdir(cwd)
        return code, out.getvalue(), err.getvalue(), elapsed

    def run_case(self, case: CliCase, runner) -> tuple[int, str, str, float]:
        code, out, err, elapsed = runner(case.argv)
        problems = [f"{case.key}: {p}" for p in case.check(code, out, err)]
        self.record(case.key, f"{code}\n{out}", problems)
        return code, out, err, elapsed

    def op(self, i: int) -> float:
        elapsed = self.run_case(self.cases[i], self.subprocess)[3]
        if i % self.CLI_OPS_PER_BATCH == self.CLI_OPS_PER_BATCH - 1:
            self.numeric_batch(i // self.CLI_OPS_PER_BATCH)
        return elapsed

    def trace_op(self, i: int) -> float:
        """One case in-process, plus the numeric batches and known-defect
        probes spread over the cycle, so that one cycle covers every input."""
        elapsed = self.run_case(self.cases[i], self.inprocess)[3]
        if i < self.batches:
            self.numeric_batch(i)
        if i < len(self.probes):
            self.inprocess(self.probes[i].argv)
        return elapsed

    def numeric_batch(self, b: int) -> None:
        """One point of every arity, in a variant that cycles with ``b``."""
        width = len(self.ARITIES)
        offset = (b % self.batches) * width
        start = perf_counter()
        for pt in self.points[offset:offset + width]:
            self.point_op(pt)
        if self.tracer is None:
            self.numeric_s += perf_counter() - start
            self.numeric_points += width

    def point_op(self, pt: NumericPoint) -> None:
        polar = {i: logspace.PolarCoord(r, t) for i, (r, t) in enumerate(zip(pt.radii, pt.phases))}
        p = logspace.CplPoint(pt.ctx, pt.base, polar)
        rep = logspace.simplex_representative(p)
        sign = logspace.sign_f(rep)
        turned = logspace.sign_f(logspace.monodromy(rep, pt.lam))
        value = logspace.f_mot(p)
        image = logspace.psi_map(p)
        back = logspace.psi_inverse(pt.ctx, pt.base, image.scale, image.residual_map())
        windings, phase = logspace.recover_multiplicities(
            logspace.sign_oracle(pt.ctx, pt.base), len(pt.mults), pt.samples)

        want_sign = oracles.sign_from_phases(pt.unit, pt.phases, pt.mults)
        want_value = oracles.value_from_polar(pt.unit, pt.radii, pt.phases, pt.mults)
        speeds = sum(1.0 / (pc.radius * n) for (_, pc), n in zip(rep.polar, pt.mults))
        scale = abs(want_value)
        checks = (
            ("simplex sum", abs(speeds - 1.0) <= oracles.PHASE_TOL),
            ("sign_f", oracles.close(sign, want_sign)),
            ("monodromy", oracles.close(turned, oracles.rotation(pt.lam) * want_sign)),
            ("f_mot", oracles.close(value, want_value, scale)),
            ("psi order", image.order == gcd(*pt.mults)),
            ("psi scale", oracles.close(pt.unit * image.scale ** image.order, want_value, scale)),
            ("psi round trip", all(
                oracles.close(pc.value(), r * t, r)
                for (_, pc), r, t in zip(back.polar, pt.radii, pt.phases))),
            ("windings", list(windings) == pt.mults),
            ("unit phase", oracles.close(phase, oracles.unit_phase(pt.unit))),
        )
        problems = [f"{pt.key}: {label} off" for label, ok in checks if not ok]
        self.record(pt.key, repr((windings, image.order)), problems)

    def finish(self) -> None:
        for probe in self.probes:
            code, out, err, _ = self.subprocess(probe.argv)
            self.probe_results[probe.key] = probe.check(code, out, err)

    def sizes(self) -> dict:
        docs = {name: len(text) for name, text in self.docs.items()}
        return {"cases": len(self.cases), "malformed": sum(c.key.startswith("bad-") for c in self.cases),
                "probes": len(self.probes), "doc_bytes": docs,
                "numeric_points": len(self.points), "arities": [min(self.ARITIES), max(self.ARITIES)]}

    def scaling(self, ops: list[tuple[int, float]]) -> dict:
        by_sub: dict[str, list[float]] = {}
        for i, seconds in ops:
            by_sub.setdefault(self.cases[i].subcommand, []).append(seconds * 1e3)
        return {"op_p50_ms_by_subcommand": {k: median(v) for k, v in sorted(by_sub.items())}}

    def layer_metrics(self) -> dict[str, float]:
        """Points per second of the untraced passes, interpreter start,
        import, and the exit codes of real subprocesses."""
        bare = [self._timed([sys.executable, "-c", "pass"]) for _ in range(7)]
        imported = [self._timed([sys.executable, "-c", "import ncmilnor.cli"]) for _ in range(7)]
        exits: Counter = Counter()
        for case in self.cases + self.probes:
            code, _, err, _ = self.subprocess(case.argv)
            exits[str(code)] += 1
            exits["traceback"] += TRACEBACK in err
        metrics = {f"cli.exit.{k}": exits[k] for k in ("0", "1", "2", "traceback")}
        metrics["logspace.points_per_s"] = self.numeric_points / self.numeric_s
        metrics["cli.interpreter_ms"] = median(bare) * 1e3
        metrics["cli.import_ms"] = (median(imported) - median(bare)) * 1e3
        metrics["cli.known_defects.failed"] = sum(map(bool, self.probe_results.values()))
        return metrics

    def _timed(self, cmd: list[str]) -> float:
        start = perf_counter()
        subprocess.run(cmd, cwd=self.work, env=self.env, check=True, capture_output=True)
        return perf_counter() - start


WORKLOADS = {cls.name: cls for cls in (Arrangement, ChainWorkload, Interactive)}
