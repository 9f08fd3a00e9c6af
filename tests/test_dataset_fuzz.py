"""Hypothesis fuzzing of the dataset CSVs: a malformed file is a named data error.

A short tdoa-main flight is written once by ``uwbnav simulate`` at 50 Hz.
Each example copies it, applies one mutation to one file and replays the
copy at 25 Hz, so half the ticks of every file are decimated away.  The
mutations: a cell replaced by non-numeric text, an empty string, NaN or
infinity; a row cut short or extended; a renamed header column; two
swapped tdoa.csv rows; a row that repeats the key of the row before it
(its timestamp, or in anchors.csv its id).  ``ingest_dataset`` must raise
SchemaError or ClockError, and ``uwbnav run`` must exit 3 with a data
error message (an uncaught exception would fail the test as a traceback).
"""

import contextlib
import io
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbnav.cli import EXIT_DATA, EXIT_OK, main
from uwbnav.harness import ClockError, SchemaError, ingest_dataset

RATE, FILTER_RATE, SAMPLES = 50.0, 25.0, 21
TOPOLOGY = "tdoa-main"
ANCHORS, PAIRS = 8, 7
FILES = {  # data rows and columns of each file
    "truth.csv": (SAMPLES, 8),
    "imu.csv": (SAMPLES, 10),
    "anchors.csv": (ANCHORS, 4),
    "tdoa.csv": (SAMPLES * PAIRS, 4),
}


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


# no comma or line break: the mutation stays inside its cell
bad_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"), min_size=1, max_size=6
).filter(_not_a_number)
bad_cell = st.one_of(bad_text, st.sampled_from(["", "nan", "NaN", "inf", "-inf", "Infinity", "1e999"]))
files = st.sampled_from(sorted(FILES))


@st.composite
def mutations(draw):
    """``(file, kind, arguments)`` of one mutation."""
    kind = draw(st.sampled_from(["cell", "truncate", "extend", "header", "swap", "repeat_key"]))
    if kind == "swap":
        rows = FILES["tdoa.csv"][0]
        first = draw(st.integers(0, rows - 2))
        return "tdoa.csv", kind, (first, draw(st.integers(first + 1, rows - 1)))
    name = draw(files)
    if kind == "repeat_key":
        per_row = PAIRS if name == "tdoa.csv" else 1  # tdoa.csv rows share their tick's time
        return name, kind, (per_row * draw(st.integers(1, FILES[name][0] // per_row - 1)),)
    rows, columns = FILES[name]
    if kind == "header":
        column = draw(st.integers(0, columns - 1))
        return name, kind, (column, draw(bad_text))
    row = draw(st.integers(0, rows - 1))
    if kind == "cell":
        return name, kind, (row, draw(st.integers(0, columns - 1)), draw(bad_cell))
    if kind == "truncate":
        return name, kind, (row, draw(st.integers(1, columns - 1)))
    extra = draw(st.lists(st.sampled_from(["0", "1.5", "", "x"]), min_size=1, max_size=3))
    return name, kind, (row, extra)


def _mutate(lines: list[str], kind: str, args: tuple) -> None:
    """Apply one mutation in place to a file's lines (header first)."""
    if kind == "header":
        column, text = args
        names = lines[0].split(",")
        names[column] = text if text.strip() != names[column] else text + "x"
        lines[0] = ",".join(names)
        return
    if kind == "swap":
        a, b = (1 + k for k in args)
        lines[a], lines[b] = lines[b], lines[a]
        return
    row = 1 + args[0]
    cells = lines[row].split(",")
    if kind == "cell":
        cells[args[1]] = args[2]
    elif kind == "truncate":
        cells = cells[: args[1]]
    elif kind == "extend":
        cells += args[1]
    else:  # repeat_key
        cells[0] = lines[row - 1].split(",")[0]
    lines[row] = ",".join(cells)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    work = tmp_path_factory.mktemp("dataset_fuzz")
    config = work / "simulate.yaml"
    config.write_text(f"duration: {(SAMPLES - 1) / RATE}\nrate: {RATE}\ntag_offset: [-0.012, 0.001, 0.091]\n")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", "--config", str(config), "--topology", TOPOLOGY, "--seed", "4",
                     "--out", str(work / "clean")])
    assert code == EXIT_OK
    for name, (rows, _) in FILES.items():
        assert len((work / "clean" / name).read_text().splitlines()) == rows + 1, name
    return work


def _replay(work, ds) -> tuple[int, str]:
    config = work / "replay.yaml"
    config.write_text(f"mode: dataset\ndataset_dir: {ds}\nrate: {RATE}\nfilter_rate: {FILTER_RATE}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(config), "--topology", TOPOLOGY, "--out", str(work / "run")])
    return code, err.getvalue()


def test_clean_dataset_replays(dataset):
    assert _replay(dataset, dataset / "clean") == (EXIT_OK, "")


@settings(max_examples=300, derandomize=True)
@given(mutations())
def test_mutated_dataset_is_a_data_error(dataset, mutation):
    name, kind, args = mutation
    ds = dataset / "mutated"
    shutil.rmtree(ds, ignore_errors=True)
    shutil.copytree(dataset / "clean", ds)
    lines = (ds / name).read_text().splitlines()
    _mutate(lines, kind, args)
    (ds / name).write_text("\n".join(lines) + "\n")
    with pytest.raises((SchemaError, ClockError)):
        ingest_dataset(ds, FILTER_RATE, TOPOLOGY)
    code, err = _replay(dataset, ds)
    assert code == EXIT_DATA, err
    assert err.startswith("data error: ")
