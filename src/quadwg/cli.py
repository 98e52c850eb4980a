"""Command-line harness: config ingestion, sweeps, CSV/JSON emission.

Subcommands: emit, scatter, sweep-reflection, entangle, gate, verify.
Configuration comes from an INI-style file with one section per subcommand
plus a shared ``[common]`` section; ``--set key=value`` flags override file
values.  A subcommand reads only the ``[common]`` keys it uses
(``COMMON_KEYS``), and its own section overrides ``[common]``.  Unknown
keys are rejected with a file/line diagnostic.  ``DEFAULTS`` states each
key once: its default, its comment and the reader that turns its text into
a value.  Every key a subcommand takes is read before the subcommand
starts, so a bad value exits 1 naming its key and writes nothing, and the
handler gets values, not text.  Exit status is 0 on success, 1 on
configuration errors (including invalid envelopes and unsupported setups),
2 on numerical failures (zero-norm states, overlaps outside the unit disk,
spectra without spread, integrator and quadrature failures, failed
verification).

Data files are deterministic: identical configuration yields byte
identical CSV/JSON.  Run metadata (timestamp, resolved configuration)
goes to a separate ``<stem>.meta.json`` sidecar.  Frequencies in data
files are quoted in units of the resonance frequency.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import functools
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from . import emission, entanglement, gate, scattering, spectral, timedomain
from .errors import _NumericalFailure
from .spectral import (_CHUNK_POINTS, CouplingSpec, DirectionPair, Envelope,
                       FrequencyGrid, _first_alike, _row_chunks)

__all__ = ["run", "main", "print_defaults", "ConfigError"]

ENV_OUTDIR = "QUADWG_OUTDIR"

class ConfigError(Exception):
    """Bad configuration file or override."""


# Readers of configuration text.  Each turns a key's text into its value,
# or raises ConfigError with a message that ``_read_config`` prefixes with
# the key.  Every number must be finite, and no reader takes empty text.
def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"value must be finite, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _number(text)
    if not value > 0:
        raise ConfigError(f"value must be positive, got {text!r}")
    return value


def _size(text: str) -> int:
    """A grid size: an integer of at least two."""
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None
    if value < 2:
        raise ConfigError(f"value must be at least 2, got {text!r}")
    return value


def _flag(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ConfigError(f"expected a boolean, got {text!r}")
    return word in ("true", "yes", "1", "on")


def _items(text: str) -> list[str]:
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise ConfigError("expected at least one value")
    return items


def _numbers(rule: str) -> Callable[[str], list[float]]:
    """Reader of comma-separated finite numbers, each of them ``"finite"``,
    ``"positive"`` or ``"nonnegative"`` as ``rule`` says."""
    within = {"finite": math.isfinite, "positive": lambda value: value > 0,
              "nonnegative": lambda value: value >= 0}[rule]

    def read(text):
        items = _items(text)
        try:
            values = [float(tok) for tok in items]
        except ValueError:
            raise ConfigError("expected comma-separated numbers") from None
        for check, name in ((math.isfinite, "finite"), (within, rule)):
            for tok, value in zip(items, values):
                if not check(value):
                    raise ConfigError(
                        f"every value must be {name}, got {tok!r}")
        return values
    return read


def _one_of(choices: dict, fold: Callable[[str], str]) -> Callable:
    """Reader of a name of ``choices``, as ``fold`` gives it, to its value."""
    def read(text):
        try:
            return choices[fold(text)]
        except KeyError:
            raise ConfigError(f"expected one of {', '.join(choices)},"
                              f" got {text!r}") from None
    return read


def _each(read: Callable) -> Callable:
    """Reader of comma-separated values, each read by ``read``."""
    return lambda text: [read(tok) for tok in _items(text)]


def _rates(text: str) -> str | dict[DirectionPair, float]:
    """``isotropic`` or ``mirror``, in any case, or four rates pp,pm,mp,mm."""
    kind = text.strip().lower()
    if kind in ("isotropic", "mirror"):
        return kind
    rates = _numbers("finite")(text)
    if len(rates) != 4:
        raise ConfigError("expected isotropic, mirror, or four values")
    return dict(zip(spectral.PAIRS, rates))


def _stem(text: str) -> str:
    """An output stem that names a file of its own in the output directory:
    not empty, ``.`` or ``..``, and without a path separator."""
    if text in ("", ".", "..") or os.path.basename(text) != text:
        raise ConfigError("expected a file name without a path separator,"
                          f" got {text!r}")
    return text


# Registry of every legal key: section -> key -> (default, comment, reader).
# Frequencies are absolute; with the default omega0 = 1 they read as
# fractions of the resonance.
DEFAULTS: dict[str, dict[str, tuple[str, str, Callable]]] = {
    "common": {
        "omega0": ("1.0", "emitter resonance (sets the frequency unit)", _positive),
        # Positive where it is split over the directions (_read_config).
        "total_rate": ("0.004", "summed pair decay rate", _number),
        "rates": ("isotropic",
                  "isotropic | mirror | four comma values pp,pm,mp,mm", _rates),
        "envelope": ("gaussian", "gaussian | lorentzian", _one_of(
            {"gaussian": Envelope.gaussian, "lorentzian": Envelope.lorentzian},
            lambda text: text.strip().lower())),
        "envelope_width": ("0.02", "envelope width parameter", _positive),
    },
    "emit": {
        "n_omegabar": ("1024", "sum-frequency samples", _size),
        "n_delta": ("512", "difference-frequency samples", _size),
        "output_stem": ("emission", "basename for csv/json outputs", _stem),
    },
    "scatter": {
        "sum_center": ("1.0", "input pulse center in the sum frequency", _number),
        "sum_width": ("0.02", "input pulse intensity std dev", _positive),
        "diff_center": ("0.0", "difference-frequency center", _number),
        "diff_width": ("0.02", "difference-profile intensity std dev", _positive),
        "channel": ("++", "input direction channel", _one_of(
            {pair.value: pair for pair in DirectionPair}, str.strip)),
        "n_omegabar": ("256", "output grid sum samples", _size),
        "n_delta": ("128", "output grid difference samples", _size),
        "output_stem": ("scatter", "basename for csv/json outputs", _stem),
    },
    "sweep-reflection": {
        "alpha": ("0.002", "input intensity std dev", _positive),
        "ratios": ("0.25,0.35,0.5,0.71,1.0,1.41,2.0,2.83,4.0",
                   "envelope-to-input width ratios", _numbers("positive")),
        # Only the rate-to-alpha ratios matter; these keep every rate
        # inside the flat-band validity range.
        "rates": ("0.0004,0.002,0.01", "total rates to sweep", _numbers("positive")),
        "output_stem": ("reflection_sweep", "basename for csv/json outputs", _stem),
    },
    "entangle": {
        "width_ratios": ("0.01,0.0316,0.1,0.316,1.0,3.16,10.0,31.6,100.0",
                         "envelope width over total rate", _numbers("positive")),
        "detuning_ratios": ("0.5,1,2,4,6,8,10,12,16,20",
                            "filter detuning over total rate",
                            _numbers("nonnegative")),
        "point_width_ratio": ("0.01", "width ratio for the summary state",
                              _positive),
        "point_detuning_ratio": ("10", "detuning ratio for the summary state",
                                 _number),
        "output_stem": ("entanglement", "basename for csv/json outputs", _stem),
    },
    "gate": {
        "shapes": ("gaussian,lorentzian", "pulse shapes to sweep", _each(
            _one_of({name: name for name in gate._PULSES}, str.strip))),
        "ratios": ("1,2,5,10,20,50,100,200,500,1000,2000,5000,10000",
                   "rate-to-bandwidth ratios", _numbers("positive")),
        "fwhm_on_power": ("false", "measure fwhm on |f|^2 instead of f", _flag),
        "report_ratio": ("100", "ratio for the summary report", _positive),
        "output_stem": ("gate_infidelity", "basename for csv/json outputs", _stem),
    },
    "verify": {
        "input_width": ("0.02", "matched input intensity std dev", _positive),
        "n_omegabar": ("256", "oracle grid sum samples", _size),
        "n_delta": ("96", "oracle grid difference samples", _size),
        "tolerance": ("0.02", "relative agreement demanded of probabilities",
                      _positive),
        "output_stem": ("verify", "basename for json output", _stem),
    },
}


# The [common] keys each subcommand reads.  A command rejects a --set of
# any other common key, skips the rest of [common] in a config file and
# leaves them out of its sidecar.
COMMON_KEYS: dict[str, tuple[str, ...]] = {
    "emit": tuple(DEFAULTS["common"]),
    "scatter": tuple(DEFAULTS["common"]),
    "sweep-reflection": ("omega0",),
    "entangle": ("omega0", "total_rate"),
    "gate": (),
    "verify": tuple(DEFAULTS["common"]),
}


def print_defaults(stream=None) -> None:
    """Emit a complete annotated configuration template."""
    out = stream or sys.stdout
    for section, entries in DEFAULTS.items():
        out.write(f"[{section}]\n")
        for key, (value, comment, _) in entries.items():
            out.write(f"# {comment}\n{key} = {value}\n")
        out.write("\n")


def _read_config(path: str | None, command: str,
                 overrides: Sequence[str]) -> tuple[dict, SimpleNamespace]:
    """Merge defaults, config file and --set overrides for one command, and
    read every key it takes: the text of each, and its value."""
    common = COMMON_KEYS[command]
    table = {k: DEFAULTS["common"][k] for k in common} | DEFAULTS[command]
    merged = {key: text for key, (text, *_) in table.items()}

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            parser.read_file(lines, source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(
                    f"{path}: unknown section [{section}]"
                    f" (expected one of {', '.join(DEFAULTS)})")
        # The command's own section overrides [common] whatever the order
        # of the two in the file.
        for section, keys in (("common", common), (command, DEFAULTS[command])):
            if not parser.has_section(section):
                continue
            for key, value in parser.items(section):
                if key not in DEFAULTS[section]:
                    line = _find_line(lines, section, key)
                    raise ConfigError(
                        f"{path}:{line}: unknown key '{key}'"
                        f" in section [{section}]")
                if key in keys:
                    merged[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not KEY=VALUE")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in merged:
            raise ConfigError(f"override key '{key}' unknown for {command}")
        merged[key] = value.strip()

    def read(key, reader):
        try:
            return reader(merged[key])
        except ConfigError as exc:
            raise ConfigError(f"key '{key}': {exc}") from None

    values = {key: read(key, reader) for key, (_, _, reader) in table.items()}
    # The one rule over two keys: a total rate split over the directions
    # must be positive.  Four rates of their own leave it unused; entangle
    # reads no rates and always splits it.
    if "total_rate" in values and not isinstance(values.get("rates"), dict):
        read("total_rate", _positive)
    return merged, SimpleNamespace(**values)


def _find_line(lines: list[str], section: str, key: str) -> int:
    """The number of the first of ``lines`` that sets ``key``, which
    configparser has lowercased, in ``[section]`` or ``[DEFAULT]``, or 0."""
    current = None
    for lineno, line in enumerate(lines, 1):
        header = configparser.ConfigParser.SECTCRE.match(line.strip())
        if header:
            current = header.group("header")
        elif current in (section, configparser.DEFAULTSECT):
            name = line.split("=", 1)[0].split(":", 1)[0]
            if name != line and name.strip().lower() == key:
                return lineno
    return 0


def _coupling(cfg) -> CouplingSpec:
    """The coupling of the [common] keys."""
    envelope = cfg.envelope(cfg.envelope_width)
    if isinstance(cfg.rates, dict):
        return CouplingSpec(cfg.omega0, cfg.rates, envelope)
    return getattr(CouplingSpec, cfg.rates)(cfg.total_rate, envelope,
                                            cfg.omega0)


# The %.12g kernel of every CSV writer.  Each number of a row gets
# a field of five 8-byte words, in which every byte %.12g could write for it
# has its place:
#   word 0       "-0.000": sign and the zeros ahead of the digits of
#                1e-4 <= |x| < 0.1
#   words 1-3    significant digit i at byte 8 + 2i, each followed by a
#                slot for the decimal point; the slot after the twelfth
#                digit holds the "e"
#   word 4       exponent sign and three exponent digits, then the
#                separator: ",", ",<label>," or "\n"
# A layout row, picked by the number's exponent, digit count and sign,
# holds the punctuation the number needs and 0xff over each digit it
# keeps; every other byte is NUL.  AND-ing in the digits and deleting the
# NUL bytes of the whole block leaves the CSV text.  Every byte a layout row
# does not clear survives, so a field's length in the text is the count of
# its row's non-NUL bytes plus its separator's length.
_DIGIT, _EXP = 8, 32
_FIXED = 16                             # %.12g writes exponents -4..11 in full
_EMIN, _EMAX = -324, 308                # exponents of nonzero finite floats


def _words(chunks) -> np.ndarray:
    """Byte strings of at most 8 bytes as uint64 words, NUL padded."""
    return np.frombuffer(b"".join(c.ljust(8, b"\0") for c in chunks),
                         dtype=np.uint64)


@functools.cache
def _g12_tables() -> SimpleNamespace:
    """Lookup tables of the %.12g kernel, built on first use.

    ``layouts`` holds a row for each (mode, digit count, negative) at
    ``(mode * 12 + digits - 1) * 2 + negative``.  A number's mode is
    e + 4 for an exponent e that %.12g writes in fixed notation,
    ``_FIXED`` for a two-digit and ``_FIXED + 1`` for a three-digit
    exponent; ``modes`` maps e - ``_EMIN`` to it.
    """
    keep = 0xFF
    layouts = np.zeros((_FIXED + 2, 12, 2, 40), dtype=np.uint8)
    for mode in range(_FIXED + 2):
        for ndig in range(1, 13):
            row = layouts[mode, ndig - 1]
            row[1, 0] = ord("-")
            row[:, _DIGIT:_DIGIT + 2 * ndig:2] = keep
            e = mode - 4
            if 0 <= e < 12:
                # integer digits are kept even where they are trailing zeros
                row[:, _DIGIT:_DIGIT + 2 * e + 1:2] = keep
                row[:, _DIGIT + 2 * e + 1] = ord(".") if ndig > e + 1 else 0
            elif e < 0:
                row[:, 1:2 - e] = list(b"0.000"[:1 - e])
            else:
                row[:, _DIGIT + 1] = ord(".") if ndig > 1 else 0
                row[:, _EXP - 1] = ord("e")
                row[:, _EXP:_EXP + 4] = keep
                row[:, _EXP + 1] = keep if mode > _FIXED else 0
    groups = np.arange(10000)
    exponents = np.arange(_EMIN, _EMAX + 1)
    significant = 4 - (groups[:, None] % [10, 100, 1000, 10000] == 0).sum(1)
    significant[0] = 1      # the one digit of a zero
    tables = SimpleNamespace(
        layouts=layouts.view(np.uint64).reshape(-1, 5),
        # the length of the field each layout row writes, separator
        # excluded: the bytes it keeps
        lengths=np.count_nonzero(layouts.reshape(-1, 40), axis=1)
        .astype(np.uint8),
        # correctly rounded powers of ten, 10**k at k - _EMIN
        pow10=np.array([float("1e%d" % k) for k in range(_EMIN, 1 - _EMIN)]),
        # the four digits of 0..9999 with 0xff between and after them
        digits=_words(b"%c\xff%c\xff%c\xff%c\xff" % tuple(b"%04d" % g)
                      for g in groups),
        significant=significant,
        exponents=_words(b"%+04d" % e for e in exponents),
        modes=np.where((exponents >= -4) & (exponents < 12), exponents + 4,
                       _FIXED + (abs(exponents) >= 100)))
    for table in vars(tables).values():   # shared by every caller
        table.flags.writeable = False
    return tables


def _decimal12(x: np.ndarray, pow10: np.ndarray):
    """Digits and exponent of every value of ``x`` rounded to 12 significant
    digits, as ``%.12g`` rounds it: ``|x| ~ n * 10**(e - 11)`` with ``n`` in
    [1e11, 1e12).  Zeros and non-finite values give n = 0 and e = 0.

    One multiply by a correctly rounded power of ten scales |x| to [1e11,
    1e12) with a relative error below 2**-52, under 3e-4 in absolute
    terms, so the nearest integer is the correctly rounded one unless the
    scaled value lies within 1e-3 of a half.  Such values, and those
    outside [1e-280, 1e280], where 10**(11 - e) would leave the float
    range, take their digits from Python's ``%.11e``, which rounds to the
    same 12 digits.
    """
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * pow10[11 - e - _EMIN]
    low, high = s < 1e11, s >= 1e12   # log10 can miss next to a power of ten
    if low.any() or high.any():
        e -= low
        e += high
        s = a * pow10[11 - e - _EMIN]
    n = np.rint(s)
    fast &= (n >= 1e11) & (n <= 1e12) & (np.abs(s - n) < 0.499)
    carry = n == 1e12
    n = np.where(carry, 1e11, n).astype(np.int64)
    e += carry
    if not fast.all():
        n[~fast] = 0
        e[~fast] = 0
        for i in np.flatnonzero(~fast & np.isfinite(x) & (x != 0)):
            digits, _, exponent = ("%.11e" % abs(x.flat[i])).partition("e")
            n.flat[i] = int(digits.replace(".", ""))
            e.flat[i] = int(exponent)
    return n, e


def _kernel_buffer(rows: int, fields: int) -> bytearray:
    """Work buffer of the kernel for rows of ``fields`` numbers: 40 bytes
    for each field of as many rows as it formats at once, at most
    ``rows``."""
    return bytearray(min(rows, _CHUNK_POINTS) * fields * 40)


def _g12_fields(x: np.ndarray, seps: np.ndarray, widths: np.ndarray,
                buf: bytearray) -> tuple[bytes, np.ndarray]:
    """Each row of ``x`` as ``%.12g`` fields, each followed by its word of
    ``seps``, whose lengths are ``widths``, laid out in the work buffer
    ``buf``; and where in that text each row's second separator lies, as
    uint8 steps: the first from the start of the text, each next from the
    one before.

    A step spans one row's worth of fields, each at most 19 bytes (as in
    "-1.23456789012e-308") and its separator, so it fits a uint8 for rows
    of up to five numbers.
    """
    t = _g12_tables()
    n, e = _decimal12(x, t.pow10)
    g0, rest = np.divmod(n, 100000000)
    g1, g2 = np.divmod(rest, 10000)
    ndig = np.where(g2 != 0, 8 + t.significant[g2],
                    np.where(g1 != 0, 4 + t.significant[g1], t.significant[g0]))
    negative = np.signbit(x)
    head = t.digits[g0]
    if not np.isfinite(x).all():
        for special, text in ((np.isinf(x), b"i\xffn\xfff"),
                              (np.isnan(x), b"n\xffa\xffn")):
            head[special] = _words([text])
            ndig[special] = 3
            e[special] = 2
        negative &= ~np.isnan(x)
    key = (t.modes[e - _EMIN] * 12 + ndig - 1) * 2 + negative
    lengths = t.lengths.take(key, mode="clip")
    lengths += widths
    steps = lengths[:, 0] + lengths[:, 1]
    for column in lengths.T[2:]:
        steps[1:] += column[:-1]
    steps[0] -= widths[1]
    size = x.size * 40
    text = np.frombuffer(buf, dtype=np.uint64,
                         count=size // 8).reshape(x.shape + (5,))
    np.take(t.layouts, key, axis=0, out=text, mode="clip")
    text[..., 1] &= head
    text[..., 2] &= t.digits[g1]
    text[..., 3] &= t.digits[g2]
    text[..., 4] &= t.exponents[e - _EMIN]
    text[..., 4] |= seps
    del text   # release the export of buf
    return ((buf if len(buf) == size else buf[:size]).translate(None, b"\0"),
            steps)


def _g12_lines(x: np.ndarray, seps: Sequence[str],
               buf: bytearray | None = None):
    """Each row of ``x`` as ``%.12g`` fields, each followed by its separator
    of ``seps`` (at most four bytes), formatted ``_CHUNK_POINTS`` rows at a
    time in the work buffer ``buf`` (``_kernel_buffer``), made here if not
    given.  Yields the text of each such piece with the steps to each
    row's second separator in it (``_g12_fields``); each piece reuses
    ``buf``, so its text is no longer than ``buf``."""
    if buf is None:
        buf = _kernel_buffer(*x.shape)
    encoded = [sep.encode() for sep in seps]
    words = _words(b"\0" * 4 + sep for sep in encoded)
    widths = np.array([len(sep) for sep in encoded], dtype=np.uint8)
    for i in range(0, len(x), _CHUNK_POINTS):
        yield _g12_fields(x[i:i + _CHUNK_POINTS], words, widths, buf)


def _joint_lines(label: str, w1, w2, amps, buf: bytearray | None = None):
    """Rows ``w1,w2,label,abs2,re,im`` with every number as ``%.12g``,
    formatted in the work buffer ``buf`` as ``_g12_lines`` does: the text
    of each piece, and the steps to each row's ``,label,`` in it."""
    x = np.empty((len(w1), 5))
    x[:, 0] = w1
    x[:, 1] = w2
    # Where Python's abs(amp) ** 2 raises OverflowError this is inf.
    with np.errstate(over="ignore"):
        x[:, 2] = spectral._abs2(amps)
    x[:, 3] = amps.real
    x[:, 4] = amps.imag
    return _g12_lines(x, (",", f",{label},", ",", ",", "\n"), buf)


def _write_joint_csv(path: str, grid: FrequencyGrid,
                     block: Callable[[DirectionPair, slice], np.ndarray],
                     omega0: float, first: Sequence[int]) -> None:
    """Joint-spectrum CSV: one row per (channel, grid point).

    ``block(pair, rows)`` returns that channel's complex amplitudes on the
    sum-frequency rows ``rows``, a slice of the ``(n_omegabar, n_delta)``
    block.  The writer asks for one chunk of rows at a time
    (``_row_chunks``) and keeps none, so it never holds a whole block.
    ``omega`` and ``omega_prime`` are the two photon frequencies in units
    of the resonance frequency.  Every value reads as ``%.12g`` writes it.

    Each chunk is formatted by a numpy kernel (``_g12_lines``) in one work
    buffer allocated per file, in pieces of at most ``_CHUNK_POINTS`` rows
    (a chunk of one wider sum row takes several).  It rounds each number
    to 12 significant digits with one multiply by a power of ten, lays out
    each field with every byte %.12g could write in a fixed place, and
    deletes the bytes a number does not use; the lengths of the layouts
    give the offset of each row's label in its piece.  A number whose
    scaled value lies too close to a half for float64 to decide its
    rounding, or whose magnitude is below 1e-280 or above 1e280, takes its
    digits from Python's ``%.11e``; zeros, infinities and nan have fixed
    layouts.  ``abs2`` has the bits of Python's ``abs(amp) ** 2``, with
    inf where Python raises ``OverflowError``.

    Each distinct channel block is formatted once.  ``first[i]`` is the
    index of the first channel whose block has the bits of channel
    ``i``'s (``EmissionSpectrum._first``, or ``_first_alike`` of the
    blocks): equality on the raw bits, not on complex values, since
    ``-0.0 == 0.0`` but the two format differently, and ``nan != nan``
    though both format alike.  A block that repeats an earlier one
    (isotropic emission, or the unlit channels of a scatter) is never
    asked for; it is copied back out of the file one kernel piece at a
    time.  For each piece of a block that a later channel copies, the
    writer keeps its byte offset, size and label offsets, the kernel's
    uint8 steps (a byte a point); it reads a copied piece into the work
    buffer, overwrites only the label bytes that differ at the summed
    steps, and writes it out.  A block no channel copies keeps nothing.
    """
    delta = grid.delta
    chunks = _row_chunks(grid)
    # The five numbers of each row of the largest chunk; a piece of text
    # formatted in it fits it again when copied.
    buf = _kernel_buffer(grid.omegabar[chunks[0]].size * delta.size, 5)
    view = np.frombuffer(buf, dtype=np.uint8)
    at = np.empty(_CHUNK_POINTS, dtype=np.int32)   # a piece's separators
    # formatted pair -> (byte offset, size, label steps) of each piece,
    # kept only if a later channel copies the block
    spans = {}
    with open(path, "w+b") as fh:
        fh.write(b"omega,omega_prime,channel,abs2,re,im\n")
        for pair in spectral.PAIRS:
            source = spectral.PAIRS[first[pair.index]]
            if source != pair:
                # Each label byte that differs, with the buffer from its
                # place in the ",label," separator on.
                patches = [(view[1 + k:], new) for k, (old, new) in enumerate(
                    zip(source.value.encode(), pair.value.encode()))
                    if old != new]
                for offset, size, steps in spans[source]:
                    fh.seek(offset)
                    fh.readinto(view[:size])
                    seps = np.cumsum(steps, dtype=np.int32,
                                     out=at[:steps.size])
                    for tail, byte in patches:
                        tail[seps] = byte
                    fh.seek(0, os.SEEK_END)
                    fh.write(view[:size])
                continue
            copied = pair.index in first[pair.index + 1:]
            pieces = spans[pair] = []
            for rows in chunks:
                ob = grid.omegabar[rows, None]
                w1 = (0.5 * (ob - delta) / omega0).ravel()
                w2 = (0.5 * (ob + delta) / omega0).ravel()
                for text, steps in _joint_lines(
                        pair.value, w1, w2, block(pair, rows).ravel(), buf):
                    if copied:
                        pieces.append((fh.tell(), len(text), steps))
                    fh.write(text)


def _write_rows_csv(path: str, header: Sequence[str],
                    rows: Sequence[Sequence[float]]) -> None:
    x = np.array(rows, dtype=float).reshape(-1, len(header))
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        fh.writelines(text for text, _ in _g12_lines(
            x, [","] * (len(header) - 1) + ["\n"]))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_sidecar(path: str, command: str, cfg: dict[str, str]) -> None:
    meta = {
        "command": command,
        "config": dict(sorted(cfg.items())),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(path, meta)


def _quantity(value, unit: str) -> dict:
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag, "unit": unit}
    return {"value": value, "unit": unit}


def _outpath(outdir: str, name: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _cmd_emit(cfg, outdir) -> tuple[str, int]:
    coupling = _coupling(cfg)
    spectrum = emission.joint_spectrum(coupling, emission.default_emission_grid(
        coupling, cfg.n_omegabar, cfg.n_delta))
    # Summaries first: an emit that exits 2 writes no file.
    total, corr = spectrum.total_probability(), spectrum.spectrum_correlation()
    _write_joint_csv(_outpath(outdir, cfg.output_stem + ".csv"), spectrum.grid,
                     spectrum.block, coupling.omega0, spectrum._first)
    _write_json(_outpath(outdir, cfg.output_stem + ".json"), {
        "total_rate": _quantity(coupling.total_rate, "omega0"),
        "envelope_width": _quantity(coupling.envelope.width, "omega0"),
        "envelope_fwhm": _quantity(coupling.envelope.fwhm(), "omega0"),
        "total_probability": _quantity(total, "dimensionless"),
        "spectrum_correlation": _quantity(corr, "dimensionless"),
    })
    return (f"emit: total_rate={coupling.total_rate:g} "
            f"P_total={total:.6f} correlation={corr:+.4f}"), 0


def _cmd_scatter(cfg, outdir) -> tuple[str, int]:
    coupling = _coupling(cfg)
    f, f_win = spectral.gaussian_sum_spectrum(cfg.sum_center, cfg.sum_width)
    h, h_win = spectral.gaussian_difference_profile(cfg.diff_width,
                                                    cfg.diff_center)
    state = spectral.SeparableState(cfg.channel, f, h, f_win, h_win)
    result = scattering.scatter(coupling, state)
    probs = scattering.channel_probabilities(result)
    grid = FrequencyGrid.for_scattering(
        coupling, (cfg.sum_center, cfg.sum_width, cfg.diff_center,
                   cfg.diff_width), cfg.n_omegabar, cfg.n_delta)
    out = result.output_on(grid)
    _write_joint_csv(_outpath(outdir, cfg.output_stem + ".csv"), grid,
                     lambda pair, rows: out.data[pair.index, rows],
                     coupling.omega0, _first_alike(out.data))
    _write_json(_outpath(outdir, cfg.output_stem + ".json"), {
        "total_rate": _quantity(coupling.total_rate, "omega0"),
        "sum_width": _quantity(cfg.sum_width, "omega0"),
        "reflection": _quantity(probs.reflection, "probability"),
        "splitting": _quantity(probs.splitting, "probability"),
        "transmission": _quantity(probs.transmission, "probability"),
        "total": _quantity(probs.total, "probability"),
        "phase_note": result.phase_note,
    })
    return (f"scatter: total_rate={coupling.total_rate:g} "
            f"R={probs.reflection:.4f} S={probs.splitting:.4f} "
            f"T={probs.transmission:.4f} sum={probs.total:.6f}"), 0


def _cmd_sweep_reflection(cfg, outdir) -> tuple[str, int]:
    alpha, ratios, rates = cfg.alpha, cfg.ratios, cfg.rates
    table = scattering.reflection_sweep(alpha, ratios, rates,
                                        cfg.omega0).reflection
    rows = [(rate, ratio, table[i, j])
            for i, rate in enumerate(rates) for j, ratio in enumerate(ratios)]
    _write_rows_csv(_outpath(outdir, cfg.output_stem + ".csv"),
                    ("total_rate", "width_ratio", "reflection"), rows)
    best = [(rate, ratios[int(np.argmax(line))], float(line.max()))
            for rate, line in zip(rates, table)]
    _write_json(_outpath(outdir, cfg.output_stem + ".json"), {
        "alpha": _quantity(alpha, "omega0"),
        "peaks": [{
            "total_rate": _quantity(rate, "omega0"),
            "best_ratio": _quantity(ratio, "dimensionless"),
            "reflection": _quantity(refl, "probability"),
        } for rate, ratio, refl in best],
    })
    peak_txt = " ".join(f"{rate:g}:{refl:.4f}" for rate, _, refl in best)
    return f"sweep-reflection: alpha={alpha:g} peak reflection {peak_txt}", 0


def _cmd_entangle(cfg, outdir) -> tuple[str, int]:
    total, pw, pd = (cfg.total_rate, cfg.point_width_ratio,
                     cfg.point_detuning_ratio)
    table = entanglement.entropy_sweeps(cfg.width_ratios, cfg.detuning_ratios,
                                        total, cfg.omega0).entropy
    coupling = CouplingSpec.isotropic(
        total, Envelope.lorentzian(pw * total), cfg.omega0)
    filters = entanglement.FilterPair.symmetric(coupling, pd * total)
    state = entanglement.postselect_filtered_state(coupling, filters)
    entropy = entanglement.entanglement_entropy(state)
    fid_psi = entanglement.bell_fidelity(state, "psi-minus")
    fid_phi = entanglement.bell_fidelity(state, "phi-plus")
    # Every number first: an entangle that fails writes no file.
    rows = [(b, d, s) for b, line in zip(cfg.width_ratios, table)
            for d, s in zip(cfg.detuning_ratios, line)]
    _write_rows_csv(_outpath(outdir, cfg.output_stem + ".csv"),
                    ("width_over_rate", "detuning_over_rate", "entropy"), rows)
    _write_json(_outpath(outdir, cfg.output_stem + ".json"), {
        "point_width_over_rate": _quantity(pw, "dimensionless"),
        "point_detuning_over_rate": _quantity(pd, "dimensionless"),
        "entropy": _quantity(entropy, "bits"),
        "fidelity_psi_minus": _quantity(fid_psi, "dimensionless"),
        "fidelity_phi_plus": _quantity(fid_phi, "dimensionless"),
        "amplitudes": {
            "aa": _quantity(state.c_aa, "dimensionless"),
            "ab": _quantity(state.c_ab, "dimensionless"),
            "ba": _quantity(state.c_ba, "dimensionless"),
            "bb": _quantity(state.c_bb, "dimensionless"),
        },
    })
    return (f"entangle: S={entropy:.4f} bits at width_ratio={pw:g} "
            f"detuning_ratio={pd:g} F(psi-)={fid_psi:.4f} "
            f"F(phi+)={fid_phi:.4f}"), 0


def _cmd_gate(cfg, outdir) -> tuple[str, int]:
    shapes, ratios, ref = cfg.shapes, cfg.ratios, cfg.report_ratio
    sweep = gate.infidelity_sweep(ratios, shapes,
                                  fwhm_on_power=cfg.fwhm_on_power)
    reports = {}
    for shape in shapes:
        rep = gate.gate_report(gate.unit_pulse(shape, cfg.fwhm_on_power), ref)
        reports[shape] = {
            "overlap": _quantity(rep.overlap, "dimensionless"),
            "worst_case_fidelity": _quantity(rep.worst_case_fidelity,
                                             "dimensionless"),
            "minimizing_occupation": _quantity(rep.minimizing_occupation,
                                               "dimensionless"),
        }
    # Every number first: a gate that fails writes no file.
    for i, shape in enumerate(shapes):
        rows = [(ratio, sweep.log10_infidelity[i, j])
                for j, ratio in enumerate(ratios)]
        _write_rows_csv(_outpath(outdir, f"{cfg.output_stem}_{shape}.csv"),
                        ("gamma_over_fwhm", "log10_infidelity"), rows)
    _write_json(_outpath(outdir, cfg.output_stem + ".json"), {
        "report_ratio": _quantity(ref, "dimensionless"),
        "reports": reports,
    })
    txt = " ".join(f"{s}:1-F={10.0 ** sweep.log10_infidelity[i, -1]:.2e}"
                   for i, s in enumerate(shapes))
    return f"gate: at gamma/fwhm={ratios[-1]:g} {txt}", 0


def _cmd_verify(cfg, outdir) -> tuple[str, int]:
    coupling = _coupling(cfg)
    width, tol = cfg.input_width, cfg.tolerance
    config = timedomain.TimeDomainConfig.for_scattering(
        coupling, width, cfg.n_omegabar, cfg.n_delta)
    state = spectral.gaussian_biphoton(
        DirectionPair.PP, coupling.omega0, width)
    traj, oracle = timedomain._scattering_run(coupling, state, config)
    markov = scattering.channel_probabilities(
        scattering.scatter(coupling, state))
    diffs = {
        "reflection": (oracle.reflection, markov.reflection),
        "splitting": (oracle.splitting, markov.splitting),
        "transmission": (oracle.transmission, markov.transmission),
    }
    worst = max(abs(a - b) / max(b, 1e-12) for a, b in diffs.values())
    passed = worst < tol
    _write_json(_outpath(outdir, cfg.output_stem + ".json"), {
        "tolerance": _quantity(tol, "dimensionless"),
        "worst_relative_difference": _quantity(worst, "dimensionless"),
        "passed": passed,
        "channels": {
            name: {
                "time_domain": _quantity(a, "probability"),
                "markov": _quantity(b, "probability"),
            } for name, (a, b) in diffs.items()},
        "norm_drift": _quantity(traj.norm_drift, "dimensionless"),
    })
    # A failed verification is a numerical failure: exit 2.
    return (f"verify: {'OK' if passed else 'FAIL'} worst relative difference "
            f"{worst:.4f} (tolerance {tol:g})"), (0 if passed else 2)


_HANDLERS = {
    "emit": _cmd_emit,
    "scatter": _cmd_scatter,
    "sweep-reflection": _cmd_sweep_reflection,
    "entangle": _cmd_entangle,
    "gate": _cmd_gate,
    "verify": _cmd_verify,
}

COMMANDS = tuple(_HANDLERS)


class _Parser(argparse.ArgumentParser):
    # Configuration mistakes exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process.  Parsing leaves it
    unchanged: ``--set`` appends to a copy of its empty default."""
    parser = _Parser(prog="quadwg",
                     description="Quadratically coupled waveguide emitter "
                                 "simulations")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print an annotated config template and exit")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", default=None,
                       help="INI-style configuration file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a configuration value")
        p.add_argument("--outdir", default=None,
                       help=f"output directory (default ${ENV_OUTDIR} or .)")
        p.add_argument("--print-defaults", action="store_true",
                       help="print an annotated config template and exit")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "print_defaults", False):
            print_defaults()
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        text, cfg = _read_config(args.config, args.command, args.set)
        outdir = args.outdir or os.environ.get(ENV_OUTDIR) or "."
        summary, status = _HANDLERS[args.command](cfg, outdir)
        _write_sidecar(_outpath(outdir, cfg.output_stem + ".meta.json"),
                       args.command, text)
    except (RuntimeError, _NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
