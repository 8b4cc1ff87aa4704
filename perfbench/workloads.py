"""The benchmark's workloads: seeded inputs, the unit of work of each, and the
known answers every verdict is checked against.

Inputs are `.sys` sources generated from the workload seed; difflat only ever
sees the generated text (plus, for implicit-vtol, seeded input sequences).
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = SRC / "difflat" / "systems"

WORKLOADS = ("symbolic-academic", "implicit-vtol", "corpus-sweep")
# BENCHMARK.json lists the other two workloads with their reasons.
# symbolic-academic runs with the same command but is left out: its unit is a
# 1-3 s cold pass in a fresh interpreter, so a run holds only a dozen of
# them, and on a shared 2-core machine whose speed drifts by 30% over a
# minute its figures spread by 30-60% across seeds, beyond any bound that
# would still catch a regression.
ACADEMIC_WHY = ("cold extend pass on academic: ~99% in expr constructors, differentiate, "
                "substitute and evaluate on 5-12k-node F trees (solve, classify)")

# symbolic-academic: the cold passes of one run use every hash seed of this
# pool once, in an order the workload seed rotates. The pool is fixed (not
# drawn per seed) because the solver's pivot order depends on set iteration
# order: about half of all hash seeds give 5.8k-node F trees and the rest
# 11.8k-node ones, and a per-seed draw of six would move the median between
# the two branches from run to run. Both branches are in the pool.
HASH_POOL = 6

# corpus-sweep: a deck holds `blocks` families per system. A family is the
# system under one relabeling of its states (the identity in the first
# family), analyzed as base, output swap, no `[extension]` and one input
# rescaled, plus the non-flat candidate for robot, in that order. No two
# cases of a deck are the same system, and every family brings new
# expressions to difflat's caches, which its later cases then hit. The
# relabelings and rescalings come from a fixed pool per system, as the hash
# seeds of symbolic-academic do: the work of a case and whether it fails
# depend on the state order and the exponent (relabeled or rescaled vtol
# cases take 0.01-0.22 s on one machine, some fail), and which case of a
# family pays for the empty cache depends on their order, so drawing either
# per seed moves the figures from seed to seed by more than any bound. The
# seed draws the order of the families in the deck.
CORPUS_SYSTEMS = ("robot", "vtol", "double_chain")
VARIANTS = ("base", "swap", "no_extension", "rescale")

# implicit-vtol: windows (one-step verifications) per simulated trajectory.
VTOL_STEPS = 25


@dataclass(frozen=True)
class Answer:
    kind: str
    r1: tuple
    r2: tuple
    d1: int
    d2: int

    def swapped(self) -> "Answer":
        return Answer(self.kind, self.r1[::-1], self.r2[::-1], self.d1, self.d2)


# Written by hand from the README table and the paper, never from difflat's
# own output. `None` marks a candidate whose correct verdict is rejection.
KNOWN = {
    "vtol": Answer("forward_flat", (0, 0), (4, 4), 0, 2),
    "academic": Answer("backward_flat", (4, 3), (0, 0), 2, 0),
    "robot": Answer("general", (1, 1), (2, 1), 1, 1),
    "double_chain": Answer("linearizing", (0, 0), (2, 1), 0, 0),
}


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    answer: Answer | None
    base: bool = False


def source(name: str) -> str:
    folder = HERE / "systems" if name == "double_chain" else BUNDLED
    return (folder / f"{name}.sys").read_text("utf-8")


def workload_sources(workload: str) -> dict:
    names = {"symbolic-academic": ("academic",), "implicit-vtol": ("vtol",),
             "corpus-sweep": CORPUS_SYSTEMS}[workload]
    return {name: source(name) for name in names}


def hash_seeds(workload: str, seed: int) -> list:
    """PYTHONHASHSEED of each interpreter of a run, derived from the seed."""
    if workload == "symbolic-academic":
        return [(seed + i) % HASH_POOL for i in range(HASH_POOL)]
    return [random.Random(f"{workload}/hash/{seed}").randrange(2 ** 32)]


# ---------------------------------------------------------------------------
# Metamorphic variants, applied to the text of a system file.

def _sections(text: str) -> list:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            out.append((line[1:-1].strip(), []))
        else:
            out[-1][1].append(line)
    return out


def _text(sections) -> str:
    return "\n".join(f"[{name}]\n" + "".join(line + "\n" for line in lines)
                     for name, lines in sections)


def _rows(line: str):
    lhs, rhs = line.split("=", 1)
    return lhs.strip(), rhs.strip()


def swap_outputs(text: str) -> str:
    secs = _sections(text)
    for name, lines in secs:
        if name == "output":
            (l1, r1), (l2, r2) = (_rows(x) for x in lines)
            lines[:] = [f"{l1} = {r2}", f"{l2} = {r1}"]
    return _text(secs)


def permute_states(text: str, perm: list) -> str:
    """Rename x<i> to x<perm[i-1]> and list the dynamics in the new order."""
    rename = lambda s: re.sub(r"\bx(\d+)\b",
                              lambda m: f"x{perm[int(m.group(1)) - 1]}", s)
    secs = [(name, [rename(line) for line in lines])
            for name, lines in _sections(text)]
    for name, lines in secs:
        if name == "dynamics":
            lines.sort(key=lambda line: int(re.match(r"x(\d+)", line).group(1)))
    return _text(secs)


def drop_extension(text: str) -> str:
    return _text([s for s in _sections(text) if s[0] != "extension"])


def rescale_input(text: str, j: int, exponent: int) -> str:
    """A pure change of units: u<j> = 10^exponent * v, written again as u<j>."""
    k = 10 ** abs(exponent)
    scale = f"{k}" if exponent >= 0 else f"1/{k}"
    leaf = re.compile(rf"\bu{j}\b")
    secs = []
    for name, lines in _sections(text):
        if name in ("dynamics", "extension", "output"):
            lines = [leaf.sub(f"({scale}*u{j})", line) for line in lines]
        elif name in ("equilibrium", "simulation"):
            scaled = []
            for line in lines:
                lhs, rhs = _rows(line)
                if lhs == f"u{j}":
                    rhs = " .. ".join(f"({part.strip()})/({scale})"
                                      for part in rhs.split(".."))
                scaled.append(f"{lhs} = {rhs}")
            lines = scaled
        secs.append((name, lines))
    return _text(secs)


def with_outputs(text: str, y1: str, y2: str) -> str:
    secs = _sections(text)
    for name, lines in secs:
        if name == "output":
            lines[:] = [f"y1 = {y1}", f"y2 = {y2}"]
    return _text(secs)


def _relabelings(system: str, text: str, blocks: int) -> list:
    """One state permutation a family, all distinct: the identity first, then
    a fixed pool."""
    n = int(re.search(r"^n\s*=\s*(\d+)", text, re.M).group(1))
    perms = [list(p) for p in itertools.permutations(range(1, n + 1))]
    if blocks > len(perms):
        raise ValueError(f"{blocks} blocks need more than the {n}! state relabelings")
    pool = perms[1:]
    random.Random(f"corpus-sweep/relabelings/{system}").shuffle(pool)
    return perms[:1] + pool[:blocks - 1]


def _rescalings(system: str, blocks: int) -> list:
    """One (input, exponent) a family, from a fixed pool, exponent in [-6, 6]."""
    rng = random.Random(f"corpus-sweep/rescalings/{system}")
    return [(rng.randint(1, 2), rng.randint(-6, 6)) for _ in range(blocks)]


def _variant(system: str, variant: str, perm: list, rescale: tuple) -> Case:
    """A variant of a system whose states are then relabeled by `perm`."""
    text, answer, name = source(system), KNOWN[system], system
    if variant == "nonflat":  # robot (x2, x3): the correct verdict is rejection
        text, answer = with_outputs(text, "x2", "x3"), None
    if perm != sorted(perm):
        text = permute_states(text, perm)
        name += f"/permute-{''.join(map(str, perm))}"
    if variant == "base":
        return Case(f"{system}/base" if name == system else name, text, answer,
                    base=name == system)
    if variant == "nonflat":
        return Case(f"{name}/nonflat-x2-x3", text, answer)
    if variant == "swap":
        return Case(f"{name}/swap", swap_outputs(text), answer.swapped())
    if variant == "no_extension":
        return Case(f"{name}/no-extension", drop_extension(text), answer)
    j, exponent = rescale
    return Case(f"{name}/rescale-u{j}-1e{exponent}",
                rescale_input(text, j, exponent), answer)


def corpus_deck(seed: int, blocks: int) -> list:
    """The cases of a corpus-sweep run: `blocks` families per system, the
    families in a seeded order."""
    families = []
    for system in CORPUS_SYSTEMS:
        variants = VARIANTS + (("nonflat",) if system == "robot" else ())
        for perm, rescale in zip(_relabelings(system, source(system), blocks),
                                 _rescalings(system, blocks)):
            families.append([_variant(system, v, perm, rescale) for v in variants])
    random.Random(f"corpus-sweep/{seed}").shuffle(families)
    return [case for family in families for case in family]


def vtol_inputs(seed: int, block: int, boxes: dict, count: int) -> list:
    """Seeded input sequence drawn from vtol's [simulation] boxes."""
    rng = random.Random(f"implicit-vtol/{seed}/{block}")
    return [[rng.uniform(*boxes[j + 1]) for j in range(2)] for _ in range(count)]


def check(answer: Answer | None, report, cert) -> str | None:
    """Compare one analysis against its known answer; None when it matches."""
    idx = report.indices
    got = Answer(report.classification.kind, tuple(idx.r1), tuple(idx.r2),
                 idx.d1, idx.d2)
    if answer is None:
        return f"non-flat candidate accepted as {got}"
    if got != answer:
        return f"verdict {got}, expected {answer}"
    if not report.residuals.get("pass"):
        return f"trajectory residuals fail: {report.residuals}"
    if not cert.passed:
        return f"certificate fails: {cert.to_json()}"
    return None
