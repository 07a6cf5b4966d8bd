import json

from golden import compare, fingerprint


def _out(value, elapsed=5, num="3"):
    return json.dumps({"x": {"kind": "approx", "value": value, "dps": 20},
                       "n": {"kind": "exact", "num": num, "den": "1"}, "elapsed_ms": elapsed}, indent=2) + "\n"


def test_approx_digits_within_margin_and_elapsed_ms_are_ignored():
    record = fingerprint(_out("1.2345678901234567890"))
    assert compare(record, fingerprint(_out("1.2345678901234567999", elapsed=9))) == []


def test_approx_change_beyond_margin_is_reported():
    record = fingerprint(_out("1.2345678901234567890"))
    assert compare(record, fingerprint(_out("1.2345678901299999999")))


def test_exact_change_is_reported():
    record = fingerprint(_out("1.0"))
    assert compare(record, fingerprint(_out("1.0", num="4")))
