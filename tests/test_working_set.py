"""Working-set bounds: the traced peak of a request's own allocations.

numpy reports its data buffers to tracemalloc, so a peak repeats exactly from
run to run. It also counts the Python objects a request makes (argparse, json,
pathlib, the CLI's dicts), so it depends on both the Python and the numpy
version; the bounds below were measured on Python 3.11.7 with numpy 2.4.6.
"""
import tracemalloc

import numpy as np

from microreg import FilamentSpec, prepare_reference, save_pgm, synth_filament
from microreg.cli import main
from microreg.polar import PolarImage, _polar_plan

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


def test_warm_align_request_holds_under_10_mib(tmp_path):
    # a warm process, as a served request finds it, samples both frames
    # with the 720x200 plan to_polar already keeps (5.9 MB, not counted
    # here): 7.68 MiB on Python 3.11.7 / numpy 2.4.6. A request that builds
    # the plan again counts it too: 10.41 MiB while each request built and
    # freed its own.
    argv = align_argv(tmp_path)
    assert main(argv) == 0
    assert traced_peak(main, argv) < 10 * MIB


def test_cold_align_request_holds_under_16_mib(tmp_path):
    # a process's first request builds the plan and holds it while it
    # scores and rotates: 13.32 MiB on Python 3.11.7 / numpy 2.4.6
    argv = align_argv(tmp_path)
    _polar_plan.cache_clear()
    assert traced_peak(main, argv) < 16 * MIB


def test_prepared_reference_holds_only_its_spectrum():
    # the reference shares the grid's arrays, and the unit grid it transforms
    # is freed on return: no second grid-sized copy is held with it
    shape = (720, 200)
    grid = PolarImage(np.random.default_rng(0).standard_normal(shape),
                      np.ones(shape, dtype=bool), 200.0)
    tracemalloc.start()
    try:
        ref = prepare_reference(grid)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= ref.spectrum.nbytes + 64 * 2 ** 10
