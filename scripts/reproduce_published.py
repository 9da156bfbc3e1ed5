#!/usr/bin/env python3
"""Best-effort reproduction of the published country figures.

Needs an archived multi-country daily snapshot covering March through
November 2020 (one row per country per day, columns including location,
date, new_cases, new_deaths, new_tests). The script splits it into the
per-country CSVs the shipped configs expect, runs calibration plus the
windowed fit for each country, and prints the results next to the published
values. Historical feeds have been revised repeatedly, so agreement is
snapshot dependent.

    python scripts/reproduce_published.py --snapshot data/owid-covid-data.csv
"""
import argparse
import csv
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from ifrlag.cli import RunConfig, main as cli_main  # noqa: E402

COUNTRIES = {
    "United States": "united_states",
    "Italy": "italy",
    "Denmark": "denmark",
    "Netherlands": "netherlands",
}

# published per-country results: calibrated m and per-window IFR sequence
PUBLISHED = {
    "united_states": {"m": 3.3, "ifr": (0.0068, None, None, None, 0.0024)},
    "italy": {"m": 4.1, "ifr": (0.022, 0.025, None, None, None)},
    "denmark": {"m": 4.2, "ifr": (0.012, 0.0038, 0.0027, 0.0012, 0.0016)},
    "netherlands": {"m": 2.2, "ifr": (0.0030, 0.0020, 0.0002, 0.0003, 0.0004)},
}

FIELDS = ("date", "new_cases", "new_deaths", "new_tests")


def split_snapshot(snapshot: Path, data_dir: Path) -> None:
    writers, handles = {}, []
    with open(snapshot, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            slug = COUNTRIES.get(row.get("location", ""))
            if slug is None:
                continue
            if slug not in writers:
                out = open(data_dir / f"{slug}.csv", "w", newline="",
                           encoding="utf-8")
                handles.append(out)
                writers[slug] = csv.DictWriter(out, fieldnames=FIELDS)
                writers[slug].writeheader()
            writers[slug].writerow({f: row.get(f, "") for f in FIELDS})
    for out in handles:
        out.close()
    missing = set(COUNTRIES.values()) - set(writers)
    if missing:
        print(f"note: snapshot has no rows for {', '.join(sorted(missing))}")


def run_country(slug: str) -> None:
    path = REPO / "configs" / f"{slug}.json"
    code = cli_main(["fit-intervals", "--config", str(path)])
    if code != 0:
        print(f"{slug} failed: exit {code}")
        return
    out = RunConfig.from_json(path).output_dir
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    published = PUBLISHED[slug]
    print(f"\n=== {report['config']['label']} ===")
    m = report["calibration"]["m"]
    print(f"published m: {published['m']}   this run: {m:.2f}")
    for n, (window, ref) in enumerate(zip(report["windows"], published["ifr"]),
                                      start=1):
        ref_text = f"{ref:.2%}" if ref is not None else "n/a"
        mean_lag = (window["lag_a"] + window["lag_b"]) / 2
        print(f"  window {n}: published {ref_text:>7}   "
              f"this run {window['ifr']:.2%}   "
              f"lag U({window['lag_a']},{window['lag_b']}) "
              f"mean {mean_lag:.1f} d")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshot", type=Path, default=None,
                        help="multi-country daily CSV to split by location")
    parser.add_argument("--countries", nargs="*", choices=list(COUNTRIES.values()),
                        default=list(COUNTRIES.values()))
    args = parser.parse_args()

    data_dir = REPO / "data"
    if args.snapshot is not None:
        split_snapshot(args.snapshot, data_dir)
    for slug in args.countries:
        if not (data_dir / f"{slug}.csv").exists():
            print(f"skipping {slug}: no {data_dir / f'{slug}.csv'} "
                  f"(pass --snapshot or place the file yourself)")
            continue
        run_country(slug)
    return 0


if __name__ == "__main__":
    sys.exit(main())
