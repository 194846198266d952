#!/usr/bin/env python3
"""Validate and summarize accord.telemetry/1 flight-recorder streams.

A telemetry stream is append-only JSONL: one `hdr` record, then `hb`
heartbeats at a deterministic cadence, then one `end` record.  The
FlightRecorder flushes after every line, so a killed run leaves a
readable partial stream — possibly ending in a truncated line, which
this tool deliberately accepts (the truncated tail is dropped, every
complete record before it still counts).

The stream partitions its content:

  canonical  simulator state at cadence-defined positions; byte
             identical across re-runs and jobs= values
  volatile   host observations (wall clock, RSS, events/sec, ETA),
             quarantined inside nested "host" objects and declared by
             the header's "volatile" list

Modes:
  --validate FILE...   schema/partition/sequence checks, exit 1 on error
  --strip FILE         print the canonical stream (host objects removed)
  --summary FILE...    per-run tables; >1 file adds a cross-sweep table
  --self-test          run the validator against committed fixtures
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "accord.telemetry/1"

# Exact per-record-type key sets; shared gauge block for hb/end.
GAUGE_KEYS = {
    "phase", "position", "cycles", "reads", "read_hits", "hit_rate",
    "eq_pending", "eq_executed", "eq_occupancy_peak",
    "eq_overflow_spills", "pool_live", "pool_block_bytes",
    "state_bytes",
}
KNOWN_KEYS = {
    "hdr": {"t", "schema", "units", "interval", "total_units", "spec",
            "volatile", "volatile_container"},
    "hb": {"t", "seq", "host"} | GAUGE_KEYS,
    "end": {"t", "seq", "host", "phases"} | GAUGE_KEYS,
}
PHASE_KEYS = {"name", "units", "cycles", "host"}


class StreamError(Exception):
    """One validation failure, annotated with file and line number."""


def parse_stream(path):
    """Return (records, truncated) — complete records plus a flag for
    an unparseable final line (accepted: kill-survivability contract).
    A parse failure anywhere else is corruption, not truncation."""
    lines = Path(path).read_text().splitlines()
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append((number, json.loads(line)))
        except json.JSONDecodeError:
            if number == len(lines):
                return records, True
            raise StreamError(f"line {number}: unparseable JSON in "
                              "the middle of the stream")
    return records, False


def _find_volatile_leaks(value, volatile, container, inside_host):
    """Recursively yield paths where a declared-volatile key appears
    outside a `container` ("host") object."""
    if not isinstance(value, dict):
        if isinstance(value, list):
            for i, item in enumerate(value):
                yield from _find_volatile_leaks(
                    item, volatile, container, inside_host)
        return
    for key, child in value.items():
        if key in volatile and not inside_host:
            yield key
        yield from _find_volatile_leaks(
            child, volatile, container,
            inside_host or key == container)


def validate_stream(path):
    """Validate one stream; returns a dict of facts about it or raises
    StreamError."""
    records, truncated = parse_stream(path)
    if not records:
        raise StreamError("empty stream (not even a header)")

    number, hdr = records[0]
    if hdr.get("t") != "hdr":
        raise StreamError(f"line {number}: first record must be the "
                          f"header, got t={hdr.get('t')!r}")
    if hdr.get("schema") != SCHEMA:
        raise StreamError(f"line {number}: schema "
                          f"{hdr.get('schema')!r}, expected {SCHEMA!r}")
    unknown = set(hdr) - KNOWN_KEYS["hdr"]
    if unknown:
        raise StreamError(f"line {number}: unknown header keys "
                          f"{sorted(unknown)}")
    volatile = set(hdr.get("volatile", []))
    container = hdr.get("volatile_container", "host")
    if not volatile:
        raise StreamError(f"line {number}: header declares no "
                          "volatile fields")

    seq = 0
    position = -1
    saw_end = False
    for number, rec in records[1:]:
        kind = rec.get("t")
        if kind not in ("hb", "end"):
            raise StreamError(f"line {number}: unknown record type "
                              f"t={kind!r}")
        if saw_end:
            raise StreamError(f"line {number}: record after the end "
                              "record")
        # Partition check first: a volatile key at the wrong level is
        # also "unknown" there, and the leak is the real diagnosis.
        leaks = sorted(set(_find_volatile_leaks(
            rec, volatile, container, False)))
        if leaks:
            raise StreamError(f"line {number}: volatile fields {leaks} "
                              f"outside the '{container}' container")
        unknown = set(rec) - KNOWN_KEYS[kind]
        if unknown:
            raise StreamError(f"line {number}: unknown {kind} keys "
                              f"{sorted(unknown)}")
        if rec.get("seq") != seq + 1:
            raise StreamError(f"line {number}: seq {rec.get('seq')} "
                              f"breaks the monotonic chain at {seq}")
        seq = rec["seq"]
        if rec.get("position", 0) < position:
            raise StreamError(f"line {number}: position went backwards "
                              f"({rec.get('position')} < {position})")
        position = rec.get("position", 0)
        if kind == "end":
            saw_end = True
            for phase in rec.get("phases", []):
                unknown = set(phase) - PHASE_KEYS
                if unknown:
                    raise StreamError(f"line {number}: unknown phase "
                                      f"keys {sorted(unknown)}")

    return {
        "hdr": hdr,
        "records": records,
        "heartbeats": sum(1 for _, r in records if r.get("t") == "hb"),
        "complete": saw_end,
        "truncated": truncated,
    }


def strip_host(rec, container="host"):
    """Return the canonical portion of a record: every `container`
    object removed, recursively."""
    if isinstance(rec, dict):
        return {k: strip_host(v, container) for k, v in rec.items()
                if k != container}
    if isinstance(rec, list):
        return [strip_host(v, container) for v in rec]
    return rec


def cmd_validate(paths):
    status = 0
    for path in paths:
        try:
            facts = validate_stream(path)
        except (StreamError, OSError) as err:
            print(f"telemetry_report: {path}: FAIL: {err}")
            status = 1
            continue
        notes = []
        if facts["truncated"]:
            notes.append("truncated tail dropped")
        if not facts["complete"]:
            notes.append("no end record (run killed or in flight)")
        suffix = f" ({'; '.join(notes)})" if notes else ""
        print(f"telemetry_report: {path}: OK, "
              f"{facts['heartbeats']} heartbeats{suffix}")
    return status


def cmd_strip(path):
    facts = validate_stream(path)
    container = facts["hdr"].get("volatile_container", "host")
    for _, rec in facts["records"]:
        print(json.dumps(strip_host(rec, container),
                         separators=(",", ":")))
    return 0


def _last_record(facts):
    return facts["records"][-1][1] if len(facts["records"]) > 1 else {}


def cmd_summary(paths):
    rows = []
    for path in paths:
        facts = validate_stream(path)
        hdr = facts["hdr"]
        last = _last_record(facts)
        host = last.get("host", {})
        total = hdr.get("total_units", 0)
        position = last.get("position", 0)
        rows.append({
            "run": Path(path).name,
            "state": ("done" if facts["complete"]
                      else "partial"),
            "hb": facts["heartbeats"],
            "position": f"{position}/{total}" if total else str(position),
            "hit_rate": f"{last.get('hit_rate', 0.0):.4f}",
            "eq_peak": last.get("eq_occupancy_peak", 0),
            "spills": last.get("eq_overflow_spills", 0),
            "wall_s": f"{host.get('wall_s', 0.0):.2f}",
            "peak_rss_kb": host.get("peak_rss_kb", 0),
            "ev_per_s": f"{host.get('events_per_sec', 0.0):.0f}",
        })
        print(f"-- {path} --")
        print(f"  spec: {hdr.get('spec', '')}")
        print(f"  cadence: every {hdr.get('interval')} "
              f"{hdr.get('units')}, {facts['heartbeats']} heartbeats"
              + (", truncated tail" if facts["truncated"] else ""))
        for phase in _last_record(facts).get("phases", []):
            wall = phase.get("host", {}).get("wall_s", 0.0)
            print(f"  phase {phase.get('name'):<8} "
                  f"units={phase.get('units'):<10} "
                  f"cycles={phase.get('cycles'):<12} "
                  f"wall_s={wall:.2f}")

    if len(rows) > 1:
        headers = list(rows[0])
        widths = {h: max(len(h), *(len(str(r[h])) for r in rows))
                  for h in headers}
        print("-- sweep --")
        print("  " + "  ".join(h.ljust(widths[h]) for h in headers))
        for row in rows:
            print("  " + "  ".join(
                str(row[h]).ljust(widths[h]) for h in headers))
    return 0


def self_test(fixture_dir):
    """Committed good/bad fixtures pin the validator's behavior: the
    good and truncated streams must pass, each bad_* fixture must fail
    with the expected message fragment."""
    fixture_dir = Path(fixture_dir)
    expect_fail = {
        "bad_schema.jsonl": "schema",
        "bad_seq.jsonl": "monotonic",
        "bad_volatile_leak.jsonl": "outside",
        "bad_midstream.jsonl": "middle of the stream",
    }
    expect_pass = {"good.jsonl", "truncated.jsonl"}
    failures = []

    for name in sorted(expect_pass):
        try:
            facts = validate_stream(fixture_dir / name)
            print(f"  {name}: OK "
                  f"({facts['heartbeats']} heartbeats)")
        except StreamError as err:
            failures.append(f"{name}: expected PASS, got: {err}")

    for name, fragment in sorted(expect_fail.items()):
        try:
            validate_stream(fixture_dir / name)
            failures.append(f"{name}: expected FAIL, validated clean")
        except StreamError as err:
            if fragment in str(err):
                print(f"  {name}: rejected as expected ({err})")
            else:
                failures.append(f"{name}: wrong error: {err}")

    # The strip round-trip: good.jsonl's hb/end records stripped of
    # host objects must contain no volatile keys anywhere.  (The
    # header legitimately names them — it declares the partition.)
    facts = validate_stream(fixture_dir / "good.jsonl")
    volatile = set(facts["hdr"]["volatile"])
    for _, rec in facts["records"]:
        if rec.get("t") == "hdr":
            continue
        text = json.dumps(strip_host(rec))
        for key in volatile:
            if f'"{key}"' in text:
                failures.append(f"good.jsonl: strip left {key} behind")

    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}")
        print("telemetry_report: self-test FAILED")
        return 1
    print("telemetry_report: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="telemetry JSONL files")
    parser.add_argument("--validate", action="store_true",
                        help="validate each stream")
    parser.add_argument("--strip", action="store_true",
                        help="print the canonical stream (one file)")
    parser.add_argument("--summary", action="store_true",
                        help="per-run and cross-sweep summaries")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the committed fixtures")
    parser.add_argument("--fixtures",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "tests" / "telemetry_fixtures"),
                        help="fixture directory for --self-test")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.fixtures)
    if not args.files:
        parser.error("no input files")
    try:
        if args.strip:
            if len(args.files) != 1:
                parser.error("--strip takes exactly one file")
            return cmd_strip(args.files[0])
        if args.summary:
            return cmd_summary(args.files)
        return cmd_validate(args.files)
    except (StreamError, OSError) as err:
        print(f"telemetry_report: {err}")
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # --strip output is made for piping into head/diff; a closed
        # downstream pipe is not an error.
        sys.exit(0)
