"""AND-optimal XOR-AND circuits for all leave-one-out products of n inputs."""

from .anf import Anf
from .circuit import AND, INPUT, NOT, XOR, Circuit, CircuitBuilder
from .io_formats import BristolFormatError, export_bristol, export_dot, export_json, import_bristol
from .synth import (BASELINE, OPTIMAL, SynthesisPlan, degree_lower_bound, synthesize,
                    synthesize_plan)
from .verify import (VerificationReport, check_exhaustive, check_lemma_suite, check_sampled,
                     reference_anf, reference_table_bits, sigma_anf)

__all__ = [
    "Anf",
    "AND", "INPUT", "NOT", "XOR", "Circuit", "CircuitBuilder",
    "BristolFormatError", "export_bristol", "export_dot", "export_json", "import_bristol",
    "BASELINE", "OPTIMAL", "SynthesisPlan", "degree_lower_bound", "synthesize", "synthesize_plan",
    "VerificationReport", "check_exhaustive", "check_lemma_suite", "check_sampled",
    "reference_anf", "reference_table_bits", "sigma_anf",
]

__version__ = "0.1.0"
