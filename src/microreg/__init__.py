"""Rotation registration and frame sequencing for noisy grayscale images."""

__version__ = "0.1.0"

from .image import (Image, DegenerateImageError, PgmFormatError, center_crop,
                    circular_crop, load_pgm, normalize, rotate,
                    rotation_matrix, save_pgm)
from .polar import PolarImage, cyclic_shift, polar_to_csv, to_polar
from .correlation import (DegenerateOverlapError, NccCurve, OpCounts,
                          Reference, RotationEstimate, estimate_rotation,
                          estimate_rotation_pruned, ncc, prepare_reference,
                          rotation_score_curve)
from .sequencer import (CorrelationMatrix, MonotonicityViolation,
                        ProbabilityTable, SequencePlan, chain_probability,
                        check_monotonicity, correlation_matrix,
                        greedy_sequence, load_probability_csv, matrix_to_csv,
                        to_probability)
from .synthgen import FilamentSpec, synth_filament
