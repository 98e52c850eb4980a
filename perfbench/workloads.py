"""The benchmark's workloads: set-up, one timed round, and output checks.

Each workload class builds its inputs in ``__init__`` (part of set-up
time) and does its fixed work in ``run_round`` (the timed region).
Outside the timed region ``check_round`` checks each round's outputs and
``check_final`` does the checks too large to repeat on every round.
Checks compare against the closed forms in ``refs.py`` or against
properties the method must have, never against a stored copy of earlier
output.

``check_round`` returns the problems found and the number of operations
that failed.  Only gate points count as failed operations: the gate
overlap loses the pulse tails at large rate-to-bandwidth ratios (a fault
in ``gate.gate_overlap``), on fixed inputs, so the same points fail in
every round.  Any other mismatch makes the run incorrect.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

import refs
from quadwg import cli, gate, scattering, spectral, timedomain
from quadwg.errors import TruncationError
from quadwg.spectral import CouplingSpec, DirectionPair, Envelope

# Defaults of the [common] configuration section, restated so the checks
# do not read them from the program.
OMEGA0 = 1.0
TOTAL_RATE = 0.004
ENVELOPE_WIDTH = 0.02
CHANNEL_LABELS = tuple(p.value for p in spectral.PAIRS)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_rows(path):
    """Rows of floats of a small CSV table, header skipped."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [[float(tok) for tok in line.split(",")] for line in fh]


def _require(problems, ok, message):
    if not ok:
        problems.append(message)


class Workload:
    min_rounds = 1

    def check_final(self, outdir):
        return []


class Datasets(Workload):
    """``quadwg emit`` and ``quadwg scatter`` at their default configurations.

    The inputs are the published configurations, so the seed only chooses
    which CSV rows the checks compare with the amplitude formulas.
    """

    name = "datasets"
    # Rounds of this text-bound work vary by about 10% on a shared 2-core
    # machine, so the median needs several; two would already do for the
    # byte-identity check across rounds.
    min_rounds = 3
    sample_rows = 64
    # file stem -> (n_omegabar, n_delta) of the default configurations.
    grids = {"emission": (1024, 512), "scatter": (256, 128)}

    def __init__(self, seed: int):
        self.seed = seed

    def sizes(self) -> dict:
        return {f"{stem}_grid": f"{no}x{nd}" for stem, (no, nd) in self.grids.items()} \
            | {f"{stem}_rows": 4 * no * nd for stem, (no, nd) in self.grids.items()}

    def run_round(self, outdir):
        codes = [cli.run(["emit", "--outdir", outdir]),
                 cli.run(["scatter", "--outdir", outdir])]
        return {"attempted": 2, "failed": sum(c != 0 for c in codes)}

    def check_round(self, outdir, payload):
        return (["a cli run exited non-zero"] if payload["failed"] else []), 0

    def check_final(self, outdir):
        problems = []
        rng = np.random.default_rng(self.seed)
        summary = _read_json(os.path.join(outdir, "emission.json"))
        total = summary["total_probability"]["value"]
        _require(problems, abs(total - 1.0) < 1e-4,
                 f"emission total probability {total!r} is not within 1e-4 of 1")
        a = TOTAL_RATE / 2
        env = functools.partial(refs.gaussian_envelope, ENVELOPE_WIDTH)
        no, nd = self.grids["emission"]
        problems += self._check_joint_csv(
            os.path.join(outdir, "emission.csv"), rng,
            np.linspace(OMEGA0 - 20 * a, OMEGA0 + 20 * a, no),
            np.linspace(0.0, 10 * ENVELOPE_WIDTH, nd),
            lambda ch, ob, d: refs.emitted_amplitude(
                TOTAL_RATE / 4, TOTAL_RATE, OMEGA0, env, ob, d))

        r, s, t = refs.matched_channels(TOTAL_RATE, ENVELOPE_WIDTH, ENVELOPE_WIDTH)
        summary = _read_json(os.path.join(outdir, "scatter.json"))
        for key, expect in (("reflection", r), ("splitting", s), ("transmission", t)):
            got = summary[key]["value"]
            _require(problems, abs(got - expect) <= 1e-8 * expect,
                     f"scatter {key} {got!r} differs from the wofz form {expect!r}")
        no, nd = self.grids["scatter"]
        problems += self._check_joint_csv(
            os.path.join(outdir, "scatter.csv"), rng,
            np.linspace(OMEGA0 - 40 * a, OMEGA0 + 40 * a, no),
            np.linspace(0.0, 10 * ENVELOPE_WIDTH, nd),
            lambda ch, ob, d: refs.matched_scatter_amplitude(
                TOTAL_RATE, ENVELOPE_WIDTH, ENVELOPE_WIDTH, OMEGA0, ch, ob, d))
        return problems

    def _check_joint_csv(self, path, rng, omegabar, delta, amplitude):
        """Row count, split-channel identity and seeded sample rows."""
        problems = []
        name = os.path.basename(path)
        with open(path, "rb") as fh:
            data = fh.read()
        ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        block = omegabar.size * delta.size
        rows = ends.size - 1
        if rows != 4 * block or data[:ends[0]] != b"omega,omega_prime,channel,abs2,re,im":
            return [f"{name}: {rows} rows or header differ from 4 x {block}"]

        def row_span(first, count):
            # Byte range of data rows first .. first + count - 1.
            return int(ends[first]) + 1, int(ends[first + count]) + 1

        pm_lo, pm_hi = row_span(block, block)
        mp_lo, mp_hi = row_span(2 * block, block)
        _require(problems,
                 data[pm_lo:pm_hi].replace(b",+-,", b",-+,") == data[mp_lo:mp_hi],
                 f"{name}: +- and -+ channels differ")

        worst = 0.0
        for index in rng.choice(4 * block, size=self.sample_rows, replace=False):
            lo, hi = row_span(int(index), 1)
            w1, w2, label, abs2, re, im = data[lo:hi - 1].decode().split(",")
            channel, rest = divmod(int(index), block)
            i, j = divmod(rest, delta.size)
            ob, d = omegabar[i], delta[j]
            expect = complex(amplitude(CHANNEL_LABELS[channel], ob, d))
            got = complex(float(re), float(im))
            scale = max(abs(expect), 1e-300)
            worst = max(worst,
                        abs(float(w1) - 0.5 * (ob - d) / OMEGA0),
                        abs(float(w2) - 0.5 * (ob + d) / OMEGA0),
                        abs(got - expect) / scale,
                        abs(float(abs2) - abs(expect) ** 2) / scale ** 2)
            _require(problems, label == CHANNEL_LABELS[channel],
                     f"{name}: row {index} carries channel {label}")
        _require(problems, worst < 1e-8,
                 f"{name}: sample rows differ from the amplitude formula by {worst:.3g}")
        return problems


class Oracle(Workload):
    """The three integrations of the acceptance oracle.

    ``quadwg verify`` at its defaults (pair input, 256x96 grid), emitter
    decay on a 256x32 emission grid, and the dt-halving pair on a 128x16
    grid.  The configurations are fixed so every run integrates the same
    number of modes and steps; the seed does not change them.
    """

    name = "oracle"
    input_width = 0.02

    def __init__(self, seed: int):
        self.coupling = CouplingSpec.isotropic(
            TOTAL_RATE, Envelope.gaussian(ENVELOPE_WIDTH), OMEGA0)
        self.decay_config = timedomain.TimeDomainConfig.for_emission(
            self.coupling, n_omegabar=256, n_delta=32)
        coarse = timedomain.TimeDomainConfig.for_scattering(
            self.coupling, self.input_width, n_omegabar=128, n_delta=16)
        halved = timedomain.TimeDomainConfig(
            coarse.grid, coarse.t_span, coarse.dt / 2,
            arrival_delay=coarse.arrival_delay)
        self.pair_configs = (coarse, halved)
        state = spectral.gaussian_biphoton(DirectionPair.PP, OMEGA0, self.input_width)
        self.pair_input = timedomain.with_arrival_delay(
            state, OMEGA0, coarse.arrival_delay)

    def sizes(self) -> dict:
        verify = timedomain.TimeDomainConfig.for_scattering(
            self.coupling, self.input_width, n_omegabar=256, n_delta=96)
        runs = {"verify": verify, "decay": self.decay_config,
                "pair_coarse": self.pair_configs[0], "pair_halved": self.pair_configs[1]}
        out = {}
        for label, config in runs.items():
            no, nd = config.grid.shape
            steps = math.ceil((config.t_span[1] - config.t_span[0]) / config.dt)
            out[label] = f"{no}x{nd} grid, {4 * no * nd} modes, {steps} steps"
        return out

    def run_round(self, outdir):
        code = cli.run(["verify", "--outdir", outdir])
        decay = timedomain.integrate(
            self.coupling, timedomain.ExcitedEmitter(), self.decay_config)
        pair = [timedomain.oracle_channel_probabilities(
                    timedomain.integrate(self.coupling, self.pair_input, config))
                for config in self.pair_configs]
        return {"attempted": 4, "failed": int(code != 0),
                "decay": (decay.times, np.abs(decay.emitter_amplitude)),
                "pair": [[p.values[q] for q in spectral.PAIRS] for p in pair]}

    def check_round(self, outdir, payload):
        problems = []
        times, amplitude = payload["decay"]
        keep = times <= 5.0 / TOTAL_RATE
        expect = refs.decay_envelope(TOTAL_RATE, times[keep])
        worst = float(np.max(np.abs(amplitude[keep] - expect) / expect))
        _require(problems, worst < 2e-2,
                 f"emitter decay departs from exp(-total t/2) by {worst:.3g}")
        coarse, halved = payload["pair"]
        worst = max(abs(a - b) / max(b, 1e-12) for a, b in zip(coarse, halved))
        _require(problems, worst < 1e-3,
                 f"dt-halving pair disagrees by {worst:.3g}")
        summary = _read_json(os.path.join(outdir, "verify.json"))
        closed = dict(zip(("reflection", "splitting", "transmission"),
                          refs.matched_channels(TOTAL_RATE, self.input_width,
                                                ENVELOPE_WIDTH)))
        for key, expect in closed.items():
            got = summary["channels"][key]["time_domain"]["value"]
            _require(problems, abs(got - expect) < 2e-2 * expect,
                     f"time-domain {key} {got!r} is not within 2% of {expect!r}")
        if payload["failed"]:
            problems.append("quadwg verify exited non-zero")
        return problems, 0


def _infidelity_matches(fidelity: float, closed_overlap: float) -> bool:
    """Worst-case infidelity within 1e-6 of its closed form, relative, or
    2e-12 absolute: twice the library's absolute quadrature target."""
    expect = 1.0 - refs.worst_case_fidelity(closed_overlap)
    return abs((1.0 - fidelity) - expect) <= 1e-6 * expect + 2e-12


class Sweeps(Workload):
    """Figure sweeps on dense grids plus per-operation library calls.

    Every sweep point is one operation.  The CLI sweeps use fixed grids.
    The seed draws the random anisotropic couplings and separable inputs;
    Lorentzian-envelope cases use a centred difference profile, for which
    the envelope overlap has a closed form, Gaussian-envelope cases a
    displaced one.
    """

    name = "sweeps"
    alpha = 0.002
    reflection_ratios = np.geomspace(0.25, 4.0, 41)
    reflection_rates = np.geomspace(4e-4, 1e-2, 6)
    gate_ratios = np.geomspace(1.0, 1e4, 61)
    width_ratios = np.geomspace(1e-2, 1e2, 41)
    detuning_ratios = np.linspace(0.5, 20.0, 40)
    random_cases = 200
    overlap_ratios = np.geomspace(1e4, 1e6, 13)
    shapes = ("gaussian", "lorentzian")

    def __init__(self, seed: int):
        self.cli_runs = [
            (["sweep-reflection", "--set", f"alpha={self.alpha!r}",
              "--set", "ratios=" + _floats(self.reflection_ratios),
              "--set", "rates=" + _floats(self.reflection_rates)],
             self.reflection_ratios.size * self.reflection_rates.size),
            (["gate", "--set", "ratios=" + _floats(self.gate_ratios)],
             len(self.shapes) * self.gate_ratios.size),
            (["entangle", "--set", "width_ratios=" + _floats(self.width_ratios),
              "--set", "detuning_ratios=" + _floats(self.detuning_ratios)],
             self.width_ratios.size * self.detuning_ratios.size),
        ]
        self.pulses = {"gaussian": gate.PulseShape.gaussian(0.0, 1.0),
                       "lorentzian": gate.PulseShape.lorentzian(0.0, 1.0)}
        self.cases = [self._draw(np.random.default_rng([seed, k]), k)
                      for k in range(self.random_cases)]

    @staticmethod
    def _draw(rng, k):
        total = rng.uniform(1e-4, 0.01)
        width = rng.uniform(0.005, 0.05)
        parallel = rng.uniform(0.0, 1.0, size=2)
        cross = rng.uniform(0.01, 1.0)
        scale = total / (parallel.sum() + 2 * cross)
        rates = {"++": scale * parallel[0], "+-": scale * cross,
                 "-+": scale * cross, "--": scale * parallel[1]}
        lorentzian = k % 2 == 1
        sum_center = OMEGA0 + rng.uniform(-0.02, 0.02)
        sum_width = rng.uniform(0.002, 0.03)
        diff_width = rng.uniform(0.005, 0.04)
        diff_center = 0.0 if lorentzian else rng.uniform(0.0, 0.03)
        channel = CHANNEL_LABELS[rng.integers(4)]
        envelope = (Envelope.lorentzian if lorentzian else Envelope.gaussian)(width)
        coupling = CouplingSpec(OMEGA0, {DirectionPair(c): r for c, r in rates.items()},
                                envelope)
        f, f_win = spectral.gaussian_sum_spectrum(sum_center, sum_width)
        h, h_win = spectral.gaussian_difference_profile(diff_width, diff_center)
        inputs = (coupling, DirectionPair(channel), f, h, f_win, h_win)
        closed = (rates, channel, width, diff_width, diff_center, sum_width,
                  sum_center - OMEGA0, lorentzian)
        return inputs, closed

    @staticmethod
    def _closed_probabilities(rates, channel, width, diff_width, diff_center,
                              sum_width, detuning, lorentzian):
        if lorentzian:
            kappa = refs.lorentzian_centered_overlap(width, diff_width)
        else:
            kappa = refs.folded_gaussian_overlap(width, diff_width, diff_center)
        return refs.separable_channel_probabilities(
            rates, channel, kappa, sum_width, detuning)

    @staticmethod
    def _closed_overlap(shape, ratio):
        if shape == "gaussian":
            return refs.gaussian_gate_overlap(ratio, refs.gaussian_pulse_sigma(1.0))
        return refs.lorentzian_gate_overlap(ratio, 0.5)

    def sizes(self) -> dict:
        return {
            "sweep_reflection": f"{self.reflection_rates.size} rates x "
                                f"{self.reflection_ratios.size} width ratios",
            "gate": f"{len(self.shapes)} shapes x {self.gate_ratios.size} ratios",
            "entangle": f"{self.width_ratios.size} x {self.detuning_ratios.size} grid",
            "random_scatter": self.random_cases,
            "gate_overlap": f"{len(self.shapes)} shapes x {self.overlap_ratios.size} ratios",
        }

    def run_round(self, outdir):
        attempted = failed = 0
        codes = []
        for argv, points in self.cli_runs:
            attempted += points
            codes.append(cli.run(argv + ["--outdir", outdir]))
            failed += points if codes[-1] else 0
        probabilities = []
        for (coupling, channel, f, h, f_win, h_win), _ in self.cases:
            attempted += 1
            state = spectral.SeparableState(channel, f, h, f_win, h_win)
            probs = scattering.channel_probabilities(scattering.scatter(coupling, state))
            probabilities.append([probs.values[p] for p in spectral.PAIRS])
        overlaps = []
        for shape in self.shapes:
            for ratio in self.overlap_ratios:
                attempted += 1
                try:
                    overlap = gate.gate_overlap(self.pulses[shape], ratio)
                    fidelity = gate.worst_case_fidelity(overlap)[0]
                except TruncationError:
                    failed += 1
                    continue
                overlaps.append((shape, ratio, overlap, fidelity))
        return {"attempted": attempted, "failed": failed, "cli_codes": codes,
                "probabilities": probabilities, "overlaps": overlaps}

    def check_round(self, outdir, payload):
        problems = []
        if any(payload["cli_codes"]):
            return ["a cli sweep exited non-zero"], 0
        worst_sum = worst_dev = 0.0
        for values, (_, closed) in zip(payload["probabilities"], self.cases):
            expect = self._closed_probabilities(*closed)
            worst_sum = max(worst_sum, abs(sum(values) - 1.0))
            worst_dev = max(worst_dev, *(abs(v - expect[c])
                                         for v, c in zip(values, CHANNEL_LABELS)))
            _require(problems, values[1] == values[2],
                     "random scatter: +- and -+ probabilities differ")
        _require(problems, worst_sum < 1e-6,
                 f"random scatter: probabilities sum to 1 only within {worst_sum:.3g}")
        _require(problems, worst_dev < 1e-8,
                 f"random scatter: channel probabilities off by {worst_dev:.3g}")

        # Gate points off their closed form are the fault's failed operations.
        failed = 0
        for shape, ratio, overlap, fidelity in payload["overlaps"]:
            _require(problems,
                     abs(fidelity - refs.bruteforce_worst_case_fidelity(overlap)) < 1e-10,
                     f"worst-case fidelity {shape} at {ratio:.4g} off the grid search")
            failed += not _infidelity_matches(fidelity, self._closed_overlap(shape, ratio))
        for shape in self.shapes:
            rows = _read_rows(os.path.join(outdir, f"gate_infidelity_{shape}.csv"))
            _require(problems, len(rows) == self.gate_ratios.size,
                     f"gate {shape} sweep has {len(rows)} rows")
            for ratio, log_infidelity in rows:
                failed += not _infidelity_matches(1.0 - 10.0 ** log_infidelity,
                                                  self._closed_overlap(shape, ratio))
        report = _read_json(os.path.join(outdir, "gate_infidelity.json"))
        ratio = report["report_ratio"]["value"]
        for shape, entry in report["reports"].items():
            overlap = complex(entry["overlap"]["re"], entry["overlap"]["im"])
            fidelity = entry["worst_case_fidelity"]["value"]
            _require(problems, _infidelity_matches(fidelity, self._closed_overlap(shape, ratio)),
                     f"gate report {shape} fidelity {fidelity} off the closed form")
            _require(problems,
                     abs(fidelity - refs.bruteforce_worst_case_fidelity(overlap)) < 1e-10,
                     f"gate report {shape} fidelity {fidelity} off the grid search")

        rows = _read_rows(os.path.join(outdir, "reflection_sweep.csv"))
        _require(problems, len(rows) == self.reflection_rates.size * self.reflection_ratios.size,
                 f"reflection sweep has {len(rows)} rows")
        worst = max(abs(refl / refs.matched_reflection(rate, self.alpha, ratio * self.alpha) - 1)
                    for rate, ratio, refl in rows)
        _require(problems, worst < 1e-7, f"reflection sweep off the wofz form by {worst:.3g}")

        rows = _read_rows(os.path.join(outdir, "entanglement.csv"))
        _require(problems, len(rows) == self.width_ratios.size * self.detuning_ratios.size,
                 f"entropy grid has {len(rows)} rows")
        worst = 0.0
        for width, detuning, entropy in rows:
            _require(problems, 0.0 <= entropy <= 1.0, f"entropy {entropy} outside [0, 1]")
            worst = max(worst, abs(entropy - refs.filtered_entropy(
                TOTAL_RATE, width * TOTAL_RATE, OMEGA0, detuning * TOTAL_RATE)))
        _require(problems, worst < 1e-9, f"entropy grid off the closed form by {worst:.3g}")
        return problems, failed


WORKLOADS = {cls.name: cls for cls in (Datasets, Oracle, Sweeps)}
