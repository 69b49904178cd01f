"""Working-set bounds: the traced peak of a request's own allocations.

numpy reports its data buffers to tracemalloc, so a peak repeats exactly from
run to run. It also counts the Python objects a request makes (argparse, json,
pathlib, the CLI's dicts), so it depends on both the Python and the numpy
version; the bound below was measured on Python 3.11.7 with numpy 2.4.6.
"""
import tracemalloc

import numpy as np

from microreg import FilamentSpec, prepare_reference, save_pgm, synth_filament
from microreg.cli import main
from microreg.polar import PolarImage

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


def test_align_request_holds_under_13_mib(tmp_path):
    # align frees its 720x200 sampling plan before it scores the candidate,
    # and its prepared reference keeps no unit grid: 10.41 MiB on Python
    # 3.11.7 / numpy 2.4.6, 11.51 MiB with the unit grid held, 15.70 MiB
    # while it also kept the plan
    paths = []
    for k, angle in enumerate((10.0, 55.0)):
        img = synth_filament(FilamentSpec(size=256, orientation_deg=angle,
                                          half_length=80.0, noise_sigma=0.2,
                                          seed=k))
        paths.append(tmp_path / f"f{k}.pgm")
        save_pgm(img, paths[-1])
    argv = ["align", "--ref", str(paths[0]), "--cand", str(paths[1]),
            "--out", str(tmp_path / "a.pgm"), "--curve",
            str(tmp_path / "a.csv"), "--report", str(tmp_path / "a.json"),
            "--angular", "720", "--radial", "200"]
    assert main(argv) == 0  # a warm process, as a served request finds it
    assert traced_peak(main, argv) < 13 * MIB


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
