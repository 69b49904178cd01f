"""Working-set bounds: the traced peak of a request's own allocations.

numpy reports its data buffers to tracemalloc, so a peak repeats exactly from
run to run. It also counts the Python objects a request makes (argparse, json,
pathlib, the CLI's dicts), so it depends on both the Python and the numpy
version; the bounds below were measured on Python 3.11.7 with numpy 2.4.6.
"""
import tracemalloc

import numpy as np
import pytest

from microreg import (FilamentSpec, estimate_rotation_pruned, load_pgm,
                      prepare_reference, save_pgm, synth_filament)
from microreg.cli import main, prepare_polar
from microreg.polar import PolarImage, _polar_plan
from microreg.sequencer import load_square_csv, matrix_to_csv

MIB = 2 ** 20


def traced_peak(fn, *args):
    """Bytes allocated at the peak of fn(*args), beyond what was held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def align_argv(tmp_path):
    """An align request on two noisy 256^2 frames at 720x200."""
    paths = []
    for k, angle in enumerate((10.0, 55.0)):
        img = synth_filament(FilamentSpec(size=256, orientation_deg=angle,
                                          half_length=80.0, noise_sigma=0.2,
                                          seed=k))
        paths.append(tmp_path / f"f{k}.pgm")
        save_pgm(img, paths[-1])
    return ["align", "--ref", str(paths[0]), "--cand", str(paths[1]),
            "--out", str(tmp_path / "a.pgm"), "--curve",
            str(tmp_path / "a.csv"), "--report", str(tmp_path / "a.json"),
            "--angular", "720", "--radial", "200"]


@pytest.mark.parametrize("search", [[], ["--pruned"]],
                         ids=["exhaustive", "pruned"])
def test_warm_align_request_holds_under_8_5_mib(tmp_path, search):
    # a warm process, as a served request finds it, samples both frames
    # with the 720x200 plan to_polar already keeps (5.9 MB, not counted
    # here): 7.68 MiB on Python 3.11.7 / numpy 2.4.6, with either search. A
    # request that builds the plan again counts it too: 10.41 MiB while each
    # request built and freed its own. A pruned search that read a doubled
    # copy of the candidate's unit grid took 9.65 MiB.
    argv = align_argv(tmp_path) + search
    assert main(argv) == 0
    assert traced_peak(main, argv) < 8.5 * MIB


def test_pruned_search_holds_under_4_mib(tmp_path):
    # the two unit grids of a 720x200 pair, a row-energy temporary and the
    # leader's tail: 3.35 MiB on Python 3.11.7 / numpy 2.4.6. A doubled copy
    # of the candidate's unit grid, squared for its row energies, took
    # 5.51 MiB.
    argv = align_argv(tmp_path)
    ref, cand = (prepare_polar(load_pgm(path), 720, 200)
                 for path in (argv[2], argv[4]))
    assert traced_peak(estimate_rotation_pruned, ref, cand) < 4 * MIB


def test_cold_align_request_holds_under_16_mib(tmp_path):
    # a process's first request builds the plan and holds it while it
    # scores and rotates: 13.32 MiB on Python 3.11.7 / numpy 2.4.6
    argv = align_argv(tmp_path)
    _polar_plan.cache_clear()
    assert traced_peak(main, argv) < 16 * MIB


def test_prepared_reference_holds_only_its_spectrum():
    # the reference shares the grid's arrays, fully valid or masked, and the
    # unit grid it transforms is freed on return: no second grid-sized copy
    # is held with it. A masked grid checked again held 2.20 MiB.
    shape = (720, 200)
    rng = np.random.default_rng(0)
    masked = np.ones(shape, dtype=bool)
    masked[:, -20:] = rng.random((720, 20)) < 0.5
    for valid in (np.ones(shape, dtype=bool), masked):
        grid = PolarImage(rng.standard_normal(shape), valid, 200.0)
        prepare_reference(grid)  # numpy keeps its plan of a 720-point FFT
        tracemalloc.start()
        try:
            ref = prepare_reference(grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= ref.spectrum.nbytes + 64 * 2 ** 10, valid.all()


def table_csv(tmp_path):
    """A 300-frame probability table, 1.7 MB as matrix_to_csv writes it."""
    rng = np.random.default_rng(0)
    p = rng.uniform(size=(300, 300))
    p = (p + p.T) / 2.0
    np.fill_diagonal(p, 1.0)
    path = tmp_path / "probability.csv"
    matrix_to_csv(p, path)
    return path


def test_table_load_holds_under_2_mib(tmp_path):
    # one streaming pass holds the 0.7 MB table and loadtxt's line buffers:
    # 0.79 MiB on Python 3.11.7 / numpy 2.4.6. Reading the whole text, a
    # copy of its body and a StringIO of that body took 10.61 MiB.
    path = table_csv(tmp_path)
    assert traced_peak(load_square_csv, path) < 2 * MIB


def sequence_argv(tmp_path):
    """A 600-step sequence request on a 300-frame table."""
    return ["sequence", "--matrix", str(table_csv(tmp_path)), "--start", "0",
            "--length", "600", "--plan", str(tmp_path / "plan.json"),
            "--frames", str(tmp_path / "frames.txt")]


def test_warm_sequence_request_holds_under_4_mib(tmp_path):
    # the table and the vetting and successor-table temporaries of a few
    # table-sized arrays: 1.44 MiB on Python 3.11.7 / numpy 2.4.6
    argv = sequence_argv(tmp_path)
    assert main(argv) == 0
    assert traced_peak(main, argv) < 4 * MIB


def test_warm_sequence_request_holds_under_1_6_mib(tmp_path):
    # about two table-sized arrays: the table, and the symmetry check's
    # difference taken in place or greedy_sequence's diagonal-masked copy.
    # A fresh np.abs of the difference made three: 2.06 MiB.
    argv = sequence_argv(tmp_path)
    assert main(argv) == 0
    assert traced_peak(main, argv) < 1.6 * MIB


def matrix_argv(tmp_path):
    """A matrix request over 300 frames of 64^2 at 180x16 with crop 40, the
    shape of the sequence-many workload's stack: every crop fully valid."""
    frames = tmp_path / "frames"
    frames.mkdir()
    for k in range(300):
        save_pgm(synth_filament(FilamentSpec(
            size=64, orientation_deg=1.2 * k, half_length=20.0,
            noise_sigma=0.1, seed=k)), frames / f"f{k:03d}.pgm")
    return ["matrix", "--inputs", str(frames), "--crop", "40",
            "--angular", "180", "--radial", "16",
            "--aligned-dir", str(tmp_path / "aligned"),
            "--matrix-out", str(tmp_path / "matrix.csv"),
            "--prob-out", str(tmp_path / "probability.csv")]


def test_warm_matrix_request_holds_under_8_mib(tmp_path):
    # the crops are held once, as the rows of the Gram product, and freed
    # before the tables are written: 5.63 MiB on Python 3.11.7 / numpy
    # 2.4.6. A crop Image per frame, kept through the request, plus a
    # centered copy of every crop took 11.34 MiB.
    argv = matrix_argv(tmp_path)
    assert main(argv) == 0
    assert traced_peak(main, argv) < 8 * MIB
