"""Exact invariant geometry on finite dimensional Lie algebras.

Everything is computed over the rationals: structure constants,
connections, metrics, complex structures and differential forms are
exact, every verdict is a theorem about the given data, and every
failed check comes with a finite witness that re-evaluates to its
stored residual.
"""

from .algebra import LieAlgebra, as_vector, bracket, jacobi_check
from .catalog import (CatalogEntry, CatalogNote, ExpectedOutcome,
                      get_example, list_examples, run_check)
from .constructions import (ConeExtension, DoubledAlgebra,
                            HessianKahlerResult, LckFamily, SurdPair,
                            cone_extend, double, extract_statistical,
                            kahler_form_from_hessian, lck_family, solve_lambda)
from .errors import (BadParameters, CurvatureMismatch, DimensionMismatch,
                     DocumentSyntaxError, InexactValue, InputError,
                     LieGeomError, MissingPieces, MissingRadiant, NoLeeForm,
                     NoRealSolution, NonPositiveT, NotAlmostComplex,
                     NotConical, NotHessian, NotStatistical, ShapeMismatch,
                     UnderdeterminedCurvature, UnknownExample,
                     UnsupportedDegree, ValidationError, VerdictError,
                     ZeroCurvature, ZeroDenominator)
from .forms import KForm, ce_d, dual_form, wedge
from .geometry import (ComplexStructure, Connection, CurvatureFit, Metric,
                       StructureReport, Witness, classify, codazzi_check,
                       constant_curvature, curvature, lee_form_solve,
                       nabla_g, nijenhuis, torsion, witness_residual)
from .io import AlgebraDocument, FormBlock, document_from, parse, serialize
from .rationals import Q, format_rational, make_rational, parse_rational
from .tensors import Infeasible, LinearSolution, Tensor, solve_linear

__version__ = "0.1.0"

import types as _types

__all__ = sorted(
    name for name, value in list(globals().items())
    if not name.startswith("_")
    and not isinstance(value, _types.ModuleType))
