"""Exact-arithmetic engine for twisted de Rham (Dwork) cohomology.

The engine computes, with no floating point anywhere:

* primitive Hodge numbers of smooth projective hypersurfaces through the
  Hilbert function of the Jacobian ring;
* dimensions of the twisted complexes (Omega^(j mod m), d + dF^) by exact
  windowed truncation with stabilization certificates, for smooth and
  singular inputs alike;
* Koszul complexes of complete intersections and their dimension shifts;
* Thom-Sebastiani, suspension and strand-decomposition identities, each
  side computed independently;
* Gauss-Manin connection matrices of one-parameter families over the
  rational-function field.
"""

__version__ = "0.1.0"

from .exceptions import (BasisError, NonHomogeneousError, NotSmoothError,
                         ParseError, StrandSumError, UnknownVariableError,
                         VariableCountMismatch)
from .fields import QQ, QQ_T, RatFunc
from .poly import Monomial, Polynomial, format_polynomial, monomial_basis
from .forms import (DifferentialForm, StrandSpec, full_complex_spec,
                    gradient_form, strand_basis)
from .linalg import (ComplexDims, StabilizationPolicy, default_policy,
                     proved_window_cohomology, rank_mod_p,
                     stabilized_cohomology)
from .griffiths import (JacobianProfile, dF_only_cohomology, jacobian_hilbert,
                        milnor_number, primitive_hodge_numbers,
                        strand_top_dims)
from .reports import Certificate, Check, CohomologyReport, Verdict
from .dwork import (affine_twisted_cohomology, ci_dwork_koszul,
                    compare_smooth_paths, fourier_lemma_check,
                    primitive_dwork_cohomology, strand_cohomology,
                    strand_decomposition, strands_and_affine,
                    suspension_check, thom_sebastiani_check)
from .gaussmanin import (ConnectionMatrix, Family, connection_properties_check,
                         family_connection_matrix, rational_connection_matrix)
from .cli import Job, corpus_runner, parse_polynomial, run_job
