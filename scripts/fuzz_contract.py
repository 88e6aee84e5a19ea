#!/usr/bin/env python3
"""The long, seeded run of the error-contract fuzz, printed as JSON.

Draws ROUNDS examples of public calls and ROUNDS `wmin` command lines with
the strategies of `tests/test_error_contract.py` (`drawn_calls`, `argv`),
under its lowered caps (`bounded`), seeded by SEED, and gives each call a
5 s alarm.  The calls include the series readers (`read_series`:
`series_from_records`, `QWSeries.coeff` and `QWSeries.truncated`, and
`characters.depth_of`) with nu drawn as a `Vec` or a plain list, and
`h_odd` with gamma drawn as a `Vec`, a tuple or a list, with a bool among
the values that spoil an index n or m or a count; then one call with a
bool, a float or a valid int in a public int argument (`INT_ARGUMENTS`:
the gram entry points' indices and cutoffs, `n4_closed_form`'s M1 and r,
`enumerate_unitary_k`'s count and `AlgebraId`'s m, a_num and a_den);
then `series_from_records` on malformed records (a field missing or of the
wrong kind, a record that is no dict, the family as a label string) and
every series reader on a weight of the wrong length or no sequence.  Where the Tier-1
test stops at the first breach, this run goes on and lists every escape:
a call that raises anything but a `WminError`, returns a series with a
coefficient that is no int, or runs past its alarm; a command line that
exits other than 0, 1 or 2, raises, prints a traceback or runs past its
alarm; and a `parse_rational` refusal that is no `ValueError`.  The exit
code is 1 when any escape was found.

    python3 scripts/fuzz_contract.py --seed 1 --rounds 500
"""
import argparse
import io
import json
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

ALARM_S = 5  # seconds a call may run before it counts as an escape


class CallTimeout(Exception):
    """A call ran past its alarm."""


def _ring(signum, frame):
    raise CallTimeout


def _timed(fn, *args):
    """fn(*args) under a fresh ALARM_S alarm."""
    signal.alarm(ALARM_S)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)


def fuzz(seed: int, rounds: int) -> dict:
    """Run both fuzzes; the counts of calls and command lines and the escapes."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as seeded
    from hypothesis import strategies as st

    import test_error_contract as contract
    import wmin
    from wmin.cli import run
    from wmin.errors import WminError

    escapes, made = [], {"calls": 0, "command_lines": 0}
    fuzzed = settings(max_examples=rounds, database=None, deadline=None,
                      phases=(Phase.explicit, Phase.generate),
                      suppress_health_check=list(HealthCheck))

    def escape(kind, what, args, detail):
        escapes.append({"kind": kind, "call": what, "args": repr(args)[:400],
                        "detail": detail[:400]})

    @seeded(seed)
    @fuzzed
    @given(st.data())
    def calls(data):
        with contract.bounded():
            drawn = contract.drawn_calls(data)
            for fn, args in drawn:
                made["calls"] += 1
                try:
                    out = _timed(fn, *args)
                except WminError:
                    continue
                except CallTimeout:
                    escape("timeout", fn.__name__, args, f"over {ALARM_S} s")
                    continue
                except Exception as err:  # the escapes this run looks for
                    escape("exception", fn.__name__, args, f"{type(err).__name__}: {err}")
                    continue
                if not contract.int_coefficients(out):
                    escape("coefficient", fn.__name__, args, "a coefficient is no int")
        text = data.draw(st.sampled_from(contract.PARSER_INPUTS))
        try:
            wmin.parse_rational(text)
        except ValueError:  # the parser's documented refusal
            pass
        except Exception as err:
            escape("exception", "parse_rational", text, f"{type(err).__name__}: {err}")

    @seeded(seed)
    @fuzzed
    @given(contract.argv())
    def command_lines(argv):
        made["command_lines"] += 1
        err = io.StringIO()
        try:
            with contract.bounded(), redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = _timed(run, argv)
        except CallTimeout:
            escape("timeout", "wmin", argv, f"over {ALARM_S} s")
            return
        except Exception as exc:
            escape("exception", "wmin", argv, f"{type(exc).__name__}: {exc}")
            return
        if code not in (0, 1, 2) or "Traceback" in err.getvalue():
            escape("exit", "wmin", argv, f"exit code {code}: {err.getvalue()}")

    old = signal.signal(signal.SIGALRM, _ring)
    try:
        calls()
        command_lines()
    finally:
        signal.signal(signal.SIGALRM, old)
    return {"seed": seed, "rounds": rounds, **made, "escapes": escapes}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True,
                    help="examples drawn of each fuzz, calls and command lines")
    args = ap.parse_args(argv)
    out = fuzz(args.seed, args.rounds)
    print(json.dumps(out))
    return 1 if out["escapes"] else 0


if __name__ == "__main__":
    sys.exit(main())
