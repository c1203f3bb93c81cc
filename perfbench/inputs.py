"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of ``(workload, seed)``: the same pair
gives byte-identical weight files and argument lists.  The program under test
sees only the files written here and the argv of each item.

An *item* is one CLI invocation.  Items are grouped into *rounds*; the timed
loop always runs whole rounds, so every run measures the same mix of item
kinds.  Two devices keep the cost of a run from depending on the seed more
than the machine's own noise does:

- Antithetic pairs: a round pairs one draw of (code length, log mu) with its
  mirror image inside the stated ranges, so every input still comes from the
  full range while the round's cost varies little.
- Common positive shapes: the constant pack depends only on the weight on
  [0, tau] (and on T), and its cost varies erratically, from 0.5 s to 8 s,
  between weights.  So the k-th generated weight of every run takes T, tau
  and the positive pieces from a fixed catalogue entry k, while the negative
  pieces, codes and mu come from the run's seed.  Every weight file is still
  distinct, within a run and across seeds.
"""

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

# Ranges of the generated inputs.  They are fixed here once; an input in
# these ranges that fails to certify is a failure of the program and is
# counted as such, never filtered out.
PC_PERIOD = (1.5, 3.0)          # T of a generated weight
PC_TAU_FRAC = (0.35, 0.65)      # tau / T
PC_BREAK_FRAC = (0.25, 0.75)    # breakpoint inside each sign interval
PC_LEVEL = (0.5, 2.0)           # |level| of each piece, log-uniform

COLD_CODE_LEN = (1, 3)
COLD_MU = (1e2, 1e3)
LONG_CODE_LEN = (8, 12)
LONG_MU = (1e5, 1e6)
BLOCK_MU = (1e2, 1e4)
BLOCK_L = (1, 2)
STUDY_ONE_BUMP = ("01", "10")   # the one-bump codes of length 2
STUDY_MU = (1e2, 1e3)           # verify/sweep mu range of every session
STUDY_POINTS = 2
# At the default mesh, `verify` reports oracle.ok = false (rel 2e-6 to 6e-6
# against the 1e-6 bar) for mu <= 1e3; at 1600 cells per subinterval it
# passes with rel below 7e-7 on step and generated weights.
STUDY_VERIFY_CELLS = 1600
BLOCKS_PER_ROUND = 10

# Seed of the catalogue of positive shapes; changing it changes the benchmark.
SHAPE_CATALOGUE = "perfbench-positive-shapes-v1"

NEWTON_TOL = 1e-10              # the CLI default tolerance, checked on solve


@dataclass
class Item:
    """One CLI call: argv without --outdir, plus what its check needs."""
    kind: str
    argv: list
    weight: str = None               # --weight value; None for step
    weight_sha256: str = "builtin:step"
    check: dict = field(default_factory=dict)

    def digest(self):
        """sha256 of the call with the weight named by its content."""
        argv = [self.weight_sha256 if a == self.weight else a
                for a in self.argv]
        return hashlib.sha256(json.dumps(argv).encode()).hexdigest()


def make_item(kind, weight, sha, args, **check):
    wargs = [] if weight is None else ["--weight", weight]
    return Item(kind, [kind] + wargs + args, weight=weight, weight_sha256=sha,
                check=check)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _mirror_log(lo, hi, x):
    """The point of [lo, hi] symmetric to x on a log scale."""
    return lo * hi / x


def random_code(rng, length):
    """A 0/1 code of the given length with at least one bump."""
    while True:
        bits = "".join(rng.choice("01") for _ in range(length))
        if "1" in bits:
            return bits


def two_level_weight(shape_rng, rng):
    """Piecewise-constant weight: two positive levels on [0, tau], two
    negative levels on [tau, T], each sign interval split at a breakpoint.

    ``shape_rng`` draws T, tau and the positive side; ``rng`` the rest.
    """
    T = shape_rng.uniform(*PC_PERIOD)
    tau = T * shape_rng.uniform(*PC_TAU_FRAC)
    bp = tau * shape_rng.uniform(*PC_BREAK_FRAC)
    lv = [_log_uniform(shape_rng, *PC_LEVEL) for _ in range(2)]
    bm = tau + (T - tau) * rng.uniform(*PC_BREAK_FRAC)
    lv += [_log_uniform(rng, *PC_LEVEL) for _ in range(2)]
    pieces = [(0.0, bp, lv[0]), (bp, tau, lv[1]),
              (tau, bm, -lv[2]), (bm, T, -lv[3])]
    return {"T": T, "tau": tau,
            "pieces": [{"t0": a, "t1": b, "kind": "poly", "data": [v]}
                       for a, b, v in pieces]}


def weight_bytes(d):
    return (json.dumps(d, indent=2, sort_keys=True) + "\n").encode()


class InputSet:
    """Generated inputs of one run: weight files on disk plus item rounds."""

    def __init__(self, workload, seed, directory):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.rng = random.Random(f"{workload}:{seed}")
        self.weights = {}            # path -> sha256
        self._n = 0

    def new_weight(self):
        """Write a fresh generated weight, validated by the program."""
        from multibump import weight as mw

        shape = random.Random(f"{SHAPE_CATALOGUE}:{self._n}")
        d = two_level_weight(shape, self.rng)
        mw.weight_from_dict(d)       # raises on an invalid weight
        data = weight_bytes(d)
        path = os.path.join(self.directory, f"w{self._n:04d}.json")
        self._n += 1
        with open(path, "wb") as f:
            f.write(data)
        sha = hashlib.sha256(data).hexdigest()
        self.weights[path] = sha
        return path, sha

    def record(self):
        """Seed and digests, for the run's output."""
        return {"workload": self.workload, "seed": self.seed,
                "weights": {os.path.basename(p): s
                            for p, s in sorted(self.weights.items())}}

    # -- rounds ------------------------------------------------------------

    def round(self):
        return getattr(self, "_round_" + self.workload)()

    def _solve(self, weight, sha, code, mu):
        return make_item("solve", weight, sha,
                         ["--symbols", code, "--mu", repr(mu)],
                         newton_tol=NEWTON_TOL)

    def _round_cold_solve(self):
        """Two solves, each on its own fresh weight; the second mirrors the
        first's code length and log mu inside their ranges."""
        lo, hi = COLD_CODE_LEN
        n = self.rng.randint(lo, hi)
        mu = _log_uniform(self.rng, *COLD_MU)
        items = []
        for length, m in ((n, mu), (lo + hi - n, _mirror_log(*COLD_MU, mu))):
            path, sha = self.new_weight()
            items.append(self._solve(path, sha,
                                     random_code(self.rng, length), m))
        return items

    def _round_long_solve(self):
        """Four long codes: one draw of (code length, log mu) and its mirror
        image, each on step and on sine, so that a round costs about the same
        for every seed although step's cost grows with the code length."""
        lo, hi = LONG_CODE_LEN
        n = self.rng.randint(lo, hi)
        mu = _log_uniform(self.rng, *LONG_MU)
        draws = ((n, mu), (lo + hi - n, _mirror_log(*LONG_MU, mu)))
        items = []
        for k, (weight, sha) in enumerate(((None, "builtin:step"),
                                           ("sine", "builtin:sine"))):
            for length, m in draws[k:] + draws[:k]:
                items.append(self._solve(weight, sha,
                                         random_code(self.rng, length), m))
        return items

    def _round_weight_study(self):
        """One session on the built-in step weight: local, then verify on
        one code, then sweep over two codes.

        Generated weights are not used here because on them `verify` exits
        3 in about one session of four: at mu = 1e3 the code "1" failed C2
        and positivity on one generated weight, and the codes with a 0 symbol
        on 4 of 15 (seeds 31-45); there the certificate needs a larger mu.
        On step every session certifies."""
        # A session's cost is set by its codes' lengths and bump counts, so
        # every session runs the same ones over the whole mu range; the seed
        # picks which one-bump code of length 2 verify and sweep each take.
        span = ["--mu-from", repr(STUDY_MU[0]), "--mu-to", repr(STUDY_MU[1]),
                "--points", str(STUDY_POINTS)]
        verified = self.rng.choice(STUDY_ONE_BUMP)
        swept = [self.rng.choice(STUDY_ONE_BUMP), "11"]
        return [
            make_item("local", None, "builtin:step", []),
            make_item("verify", None, "builtin:step",
                      ["--symbols", verified] + span
                      + ["--cells", str(STUDY_VERIFY_CELLS)]),
            make_item("sweep", None, "builtin:step",
                      ["--codes", ",".join(swept)] + span),
        ]

    def _round_blocks(self):
        items = []
        for _ in range(BLOCKS_PER_ROUND):
            mu = _log_uniform(self.rng, *BLOCK_MU)
            x = self.rng.uniform(0.0, 1.0)
            y = self.rng.uniform(0.0, 1.0)
            l = self.rng.randint(*BLOCK_L)
            items.append(make_item(
                "connection", None, "builtin:step",
                ["--mu", repr(mu), "--x", repr(x), "--y", repr(y),
                 "--l", str(l)]))
        return items
