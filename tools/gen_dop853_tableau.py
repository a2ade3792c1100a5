"""Generate ``src/sobolev_lab/_dop853_tableau.py`` from scipy's DOP853.

Run from the root of a checkout:

    python tools/gen_dop853_tableau.py > src/sobolev_lab/_dop853_tableau.py

The generated module holds DOP853's tableau as float literals and its
stages as straight-line float code, with the orbit's right-hand side
(u, u') -> (u', c u - k |u|^e u) written out in each stage, so the library
steps its orbits without importing ``scipy.integrate`` and without a Python
call per stage. scipy is needed only here and in the tests, which hold
every literal equal to scipy's arrays, the module equal to what this script
writes, and its stages equal to those of a reference that calls the
right-hand side.
"""

from __future__ import annotations

import sys
import textwrap


def _floats(values, indent: str) -> str:
    """Float literals, comma-separated and wrapped at 79 columns."""
    text = ", ".join(repr(v) for v in values) + ","
    lines = textwrap.wrap(
        text, 79, initial_indent=indent, subsequent_indent=indent,
        break_long_words=False, break_on_hyphens=False,
    )
    return "\n".join(lines)


def _vector(name: str, values) -> str:
    return "%s = (\n%s\n)" % (name, _floats(values, "    "))


def _matrix(name: str, rows) -> str:
    body = "".join("    (\n%s\n    ),\n" % _floats(row, "        ") for row in rows)
    return "%s = (\n%s)" % (name, body)


def _combo(row, i: int) -> str:
    """The nonzero products of a tableau row with component i of the stages."""
    return " + ".join("%r * k%d_%d" % (a, j, i) for j, a in enumerate(row) if a)


# the right-hand side's u'' at u, in the operation order of cylinder._rhs
_FORCE = "c * %s - k * abs(%s) ** e * %s"


def _stage(s: int, row) -> str:
    """Stage s: u at the stage's state, then (u', u'') there."""
    return (
        "    u = y0 + (%s) * h\n"
        "    k%d_0 = y1 + (%s) * h\n"
        "    k%d_1 = %s" % (_combo(row, 0), s, _combo(row, 1), s, _FORCE % ("u", "u", "u"))
    )


def _stages(lo: int, hi: int) -> str:
    return ", ".join("k%d_%d" % (s, i) for s in range(lo, hi) for i in (0, 1))


HEADER = '''"""DOP853's tableau as float literals, and its stages as straight-line code.

Generated by ``tools/gen_dop853_tableau.py`` from scipy's
``scipy.integrate.DOP853``; do not edit. The tests hold every literal equal
to scipy's arrays.

The stages are those of the orbit equation u'' = c u - k |u|^e u, whose
constants (c, k, e) ``cylinder._rhs_constants`` computes; it is autonomous,
so no stage reads the time. Each stage forms u at its state and then
(u', c u - k |u|^e u) in the operation order of ``cylinder._rhs``, so every
stage is the one a call of that right-hand side returns, bit for bit.

``attempt(c, k, e, y0, y1, k0_0, k0_1, h)`` takes one step of size h from
the state (y0, y1) with first stage (k0_0, k0_1); it returns the new state
and the 13 step stages k0..k12 as 26 floats. ``extra(c, k, e, y0, y1, h,
ks)`` returns the 3 dense-output stages k13..k15 of that step as 6 floats.
Every combination sums the nonzero products of its tableau row left to
right, in column order.
"""
'''


def source() -> str:
    """The text of the generated module."""
    from scipy.integrate import DOP853

    n = DOP853.n_stages
    lines = [
        HEADER,
        "N_STAGES = %d" % n,
        "ERROR_ESTIMATOR_ORDER = %d" % DOP853.error_estimator_order,
        _vector("C", DOP853.C.tolist()),
        _matrix("A", DOP853.A.tolist()),
        _vector("B", DOP853.B.tolist()),
        _vector("E3", DOP853.E3.tolist()),
        _vector("E5", DOP853.E5.tolist()),
        _matrix("D", DOP853.D.tolist()),
        _vector("C_EXTRA", DOP853.C_EXTRA.tolist()),
        _matrix("A_EXTRA", DOP853.A_EXTRA.tolist()),
        "",
        "",
        "def attempt(c, k, e, y0, y1, k0_0, k0_1, h):",
    ]
    lines += [_stage(s, row) for s, row in enumerate(DOP853.A[1:].tolist(), start=1)]
    b = DOP853.B.tolist()
    lines += [
        "    n0 = y0 + h * (%s)" % _combo(b, 0),
        "    n1 = y1 + h * (%s)" % _combo(b, 1),
        "    k%d_0 = n1" % n,
        "    k%d_1 = %s" % (n, _FORCE % ("n0", "n0", "n0")),
        "    return n0, n1, (%s)" % _stages(0, n + 1),
        "",
        "",
        "def extra(c, k, e, y0, y1, h, ks):",
        "    %s = ks" % _stages(0, n + 1),
    ]
    lines += [_stage(s, row) for s, row in enumerate(DOP853.A_EXTRA.tolist(), start=n + 1)]
    lines.append("    return %s" % _stages(n + 1, n + 4))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(source())
