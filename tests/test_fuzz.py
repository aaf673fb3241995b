"""Input fuzz through the command line: one mutation of a valid input per case.

Each case mutates a base config, the base sweep's CSV or the sweep flags
once, and runs `sweep` or `analyze` through cli.main in this process.  The
corpus is enumerated whole (every line or flag with every corpus value, and
every grid with each corpus value in all its cells), so a run needs no
random seed and always covers the same cases.  The contract:

- the exit code is 0, 1 or 2, and nothing else leaves main: no traceback and
  no RuntimeWarning (pyproject turns those into errors);
- exit 1 prints one `error:` line, or analyze's two-line hash mismatch, and
  a sweep that exits 1 ran no batch and wrote no CSV;
- exit 2 prints argparse's usage and error lines;
- exit 0 prints nothing to stderr;
- a config that `sweep` accepts, `analyze --force` accepts too;
- a CSV row with a negative count, or an SNR that is not finite or out of
  range, is refused.

The base config stops every sweep it accepts within its first 2-frame
batch.  A failure lists each broken case with its mutated input, so that
it can be replayed.
"""
import re

from bicmb_pc import cli, sim_engine

BASE_CONFIG = [
    "n_t = 16", "n_r = 8", "l_t = 2", "l_r = 2", "dim = 2", "constellation_order = 16",
    "beta = 0.01 0.01; 0.01 0.01", "n_paths = 2 2; 2 2", "spacing = 0.5",
    "nominal_info_bits = 128", "master_seed = 0", "batch_frames = 2", "max_frames = 2",
    "target_bit_errors = 1",
]
# at -10 dB every frame has bit errors, so a point stops on its first batch
# even when max_frames is mutated
BASE_FLAGS = {"--snr-min": "-10", "--snr-max": "-5", "--snr-step": "5", "--workers": "1"}
# "\udcff" is how Python holds an undecodable byte (0xff) of a file or argv
# 2**63 + 5 is the first count numpy holds as uint64 rather than int64
CORPUS = ("nan", "inf", "-0", "1e308", "1e200", "1e-320", "1" + "0" * 39, "2.5", "", "; ;",
          "\udcff", str(2 ** 24), str(2 ** 63 + 5))
# SNRs whose noise variance passes the ceiling, or whose 10 ** (snr / 10) underflows
SNR_CORPUS = CORPUS + ("-3060", "-1e308", "-inf")
NON_ASCII_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
USAGE_ERROR = re.compile(r"bicmb-pc( \w+)?: error: ")


def _replace_first(value: str, item: str) -> str:
    """value with its first whitespace-separated entry (a grid's first cell) set to item."""
    rest = value.partition(" ")[2]
    return f"{item} {rest}" if rest else item


def _replace_all(value: str, item: str) -> str:
    """grid value with every cell set to item."""
    return "; ".join(" ".join(item for _ in row.split()) for row in value.split(";"))


def config_mutations():
    lines = BASE_CONFIG
    yield "swap the first and last lines", [lines[-1], *lines[1:-1], lines[0]]
    for i, line in enumerate(lines):
        yield f"delete '{line}'", lines[:i] + lines[i + 1:]
        yield f"repeat '{line}'", lines[:i + 1] + lines[i:]
        key, value = line.split(" = ")
        whole_grids = (_replace_all(value, item) for item in CORPUS) if ";" in value else ()
        for new in (*(_replace_first(value, item) for item in CORPUS), *whole_grids,
                    value.translate(NON_ASCII_DIGITS)):
            yield f"set {key} = {new!r}", [*lines[:i], f"{key} = {new}", *lines[i + 1:]]


def csv_mutations(lines):
    """(description, lines, must be refused) for the base sweep's CSV lines."""
    hash_line, header, row, *_ = lines
    cells = row.split(",")
    yield "change the config hash", [hash_line[:-1] + "x", *lines[1:]], False
    yield "truncate the first row", [hash_line, header, row[:len(row) // 2], *lines[3:]], False
    header_cells = header.split(",")
    header_cells[:2] = header_cells[1::-1]
    yield "swap two header columns", [hash_line, ",".join(header_cells), *lines[2:]], False
    yield "swap two row columns", [hash_line, header, ",".join([cells[1], cells[0], *cells[2:]]),
                                   *lines[3:]], False
    for i, line in enumerate(lines):
        yield f"delete {line!r}", lines[:i] + lines[i + 1:], False
        yield f"repeat {line!r}", lines[:i + 1] + lines[i:], False
    for col, name in enumerate(("snr_db", "frames", "info_bits", "bit_errors", "ber")):
        def with_cell(new):
            return [hash_line, header, ",".join([*cells[:col], new, *cells[col + 1:]]),
                    *lines[3:]]

        corpus = SNR_CORPUS if name == "snr_db" else CORPUS
        for item in (*corpus, cells[col].translate(NON_ASCII_DIGITS)):
            refused = name == "snr_db" and item in ("nan", "inf", "-inf", "1e308", "-1e308")
            yield f"set {name} = {item!r}", with_cell(item), refused
        if name in ("frames", "info_bits", "bit_errors"):
            yield f"negate {name}", with_cell(f"-{cells[col]}"), True


def flag_mutations():
    for flag in BASE_FLAGS:
        yield f"drop {flag}", {k: v for k, v in BASE_FLAGS.items() if k != flag}
        corpus = SNR_CORPUS if flag.startswith("--snr") else CORPUS
        for item in (*corpus, BASE_FLAGS[flag].translate(NON_ASCII_DIGITS)):
            yield f"{flag} {item!r}", {**BASE_FLAGS, flag: item}
    for item in SNR_CORPUS:
        yield f"one SNR point at {item!r}", {**BASE_FLAGS, "--snr-min": item, "--snr-max": item}


def test_mutated_inputs_keep_the_exit_contract(tmp_path, capsys, monkeypatch):
    batches = []
    run_batch = sim_engine._FramePipeline.run_batch

    def counted(self, *batch):
        batches.append(batch)
        return run_batch(self, *batch)

    monkeypatch.setattr(sim_engine._FramePipeline, "run_batch", counted)
    broken = []

    def write(name, lines):
        path = tmp_path / name
        path.write_bytes("".join(f"{line}\n" for line in lines).encode("utf-8", "surrogateescape"))
        return str(path)

    def run(case, argv, refused=False):
        """Run argv through main and record each way it breaks the contract."""
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        batches.clear()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse's usage errors
            rc = exc.code
        except Exception as exc:    # a traceback, or a RuntimeWarning made an error
            rc = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        lines = err.splitlines()
        problems = []
        if rc not in (0, 1, 2):
            problems.append(f"exit {rc}")
        elif refused and rc != 1:
            problems.append(f"exit {rc} for an input that must be refused")
        elif rc == 0 and err:
            problems.append("stderr on success")
        elif rc == 1:
            mismatch = (argv[0] == "analyze" and len(lines) == 2
                        and lines[0].startswith("config hash mismatch: ")
                        and lines[1] == "pass --force to analyze anyway")
            if not mismatch and not (len(lines) == 1 and lines[0].startswith("error: ")):
                problems.append("not one error line")
            if argv[0] == "sweep" and (batches or out.exists()):
                problems.append(f"refused after {len(batches)} batches")
        elif rc == 2 and not (err.startswith("usage: ") and lines
                              and USAGE_ERROR.match(lines[-1])):
            problems.append("not argparse's usage and error lines")
        if problems:
            broken.append(f"{case}: {'; '.join(problems)}\n  argv {argv!r}\n  stderr {err!r}")
        return rc

    def sweep_argv(config, flags, out=None):
        return ["sweep", "--config", config, "--out", out or str(tmp_path / "out.csv"),
                *(part for flag, value in flags.items() for part in (flag, value))]

    base_config = write("base.cfg", BASE_CONFIG)
    assert run("base sweep", sweep_argv(base_config, BASE_FLAGS)) == 0, broken
    base_csv = (tmp_path / "out.csv").read_text().splitlines()
    results = write("base.csv", base_csv)
    assert run("base analyze", ["analyze", results, "--config", base_config]) == 0, broken

    for case, lines in config_mutations():
        config = write("case.cfg", lines)
        replay = f"config {lines!r}"
        swept = run(f"{replay}, {case}", sweep_argv(config, BASE_FLAGS))
        analyze = ["analyze", results, "--config", config, "--force"]
        if run(f"{replay}, {case}", analyze) != 0 and swept == 0:
            broken.append(f"{replay}, {case}: sweep accepted the config, analyze did not\n"
                          f"  argv {analyze!r}")
    for case, lines, refused in csv_mutations(base_csv):
        csv = write("case.csv", lines)
        run(f"csv {lines!r}, {case}", ["analyze", csv, "--config", base_config], refused)
    for case, flags in flag_mutations():
        run(case, sweep_argv(base_config, flags))
    for case, out in (("--out is a directory", str(tmp_path)),
                      ("--out in a missing directory", str(tmp_path / "no" / "x.csv"))):
        run(case, sweep_argv(base_config, BASE_FLAGS, out))
    assert not broken, f"{len(broken)} cases broke the contract:\n" + "\n".join(broken[:20])
