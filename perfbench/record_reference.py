"""Regenerate perfbench/reference.json from the current program.

    python3 perfbench/record_reference.py [--workload NAME ...]

Records, on the default seed, each batch call's [info_bits, bit_errors]
for the fixed-frame workloads and each sweep's CSV sha256 and rows.  The
counts cover about three times as many calls as a 35 s run makes today;
calls beyond them are checked by the BER band only.  Rerun this only for
a change that is meant to alter simulated results, and say so.
"""
import argparse
import hashlib
import json

import run  # pins BLAS threads before numpy loads

RECORDED = {
    "golden-d2-16qam": 320,
    "wide-d2-qpsk": 240,
    "sweep-d3-16qam-2w": 30,
}


def record(prog, name: str) -> dict:
    wl = run.WORKLOADS[name]
    cfg_path = run.HERE / "configs" / wl.config
    config = prog.cli.load_config(str(cfg_path), run.DEFAULT_SEED)
    if not wl.sweep_args:
        pipe = run.make_pipeline(prog, config)
        batches = []
        for index in range(RECORDED[name]):
            res = prog.sim.run_ber_point(config, wl.snr_db, snr_index=index,
                                         pipeline=pipe)
            batches.append([res.info_bits, res.bit_errors])
        return {"batches": batches}
    sha, points = [], []
    for rep in range(RECORDED[name]):
        _, rc, data, rows = run.sweep_rep(prog, wl, cfg_path, run.DEFAULT_SEED, rep)
        if rc != 0:
            raise SystemExit(f"sweep {rep} exited {rc}")
        sha.append(hashlib.sha256(data).hexdigest())
        points.append([[r.frames, r.info_bits, r.bit_errors] for r in rows])
    return {"sha256": sha, "points": points}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(RECORDED))
    args = parser.parse_args()
    prog = run.load_program()
    run.OUT.mkdir(exist_ok=True)
    doc = (json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file()
           else {"seed": run.DEFAULT_SEED, "workloads": {}})
    for name in args.workload or sorted(RECORDED):
        doc["workloads"][name] = record(prog, name)
        doc["src_sha256"] = run.environment(run.DEFAULT_SEED)["src_sha256"]
        run.REFERENCE.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"recorded {name}")


if __name__ == "__main__":
    main()
