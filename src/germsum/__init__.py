"""Series expansions and summation with respect to an analytic germ.

The package splits into five layers:

* :mod:`germsum.series` - truncated multivariate power series, monomial
  orders, substitution, majorant norms;
* :mod:`germsum.weierstrass` - division by a germ, germ-power expansions
  and their inverse substitution;
* :mod:`germsum.transforms` - blow-up charts, ramification, rotation
  averaging, dominant-term data;
* :mod:`germsum.gevrey` - Gevrey-order estimation from coefficient norms;
* :mod:`germsum.borel` - Borel transform, rational continuation along
  rays, Laplace integrals, singular-direction detection;

plus :mod:`germsum.harness` (example generators and equation verifiers)
and :mod:`germsum.cli` (the ``germsum`` command).
"""

from .errors import (DimensionMismatchError, GermsumError,
                     InsufficientTruncationError, SectorError,
                     SingularRayError, ZeroGermError, ZeroSeriesError)
from .scalars import DEFAULT_PREC_BITS, QQi
from .series import (MonomialOrder, TruncatedSeries, majorant_norm,
                     series_from_json, series_to_json, substitute, v_ell)
from .weierstrass import (DivisionResult, Germ, PExpansion, delta_member,
                          p_expand, t_substitute, wdivide)
from .transforms import (INFINITY, DominantData, blowup, chart_shift,
                         dominant_data, ramify, rotation_average)
from .gevrey import GevreyEstimate, NormSequence, fit_gevrey, norm_sequence
from .borel import (BorelSeries, OneVarSeries, RayContinuation,
                    SingularDirectionReport, SumResult, borel_transform,
                    continue_on_ray, laplace_sum, p_k_sum, singular_directions)
from .harness import (EXAMPLE_NAMES, ExampleData, PSectorSample,
                      ResidualReport, gen_example, sample_p_sector,
                      verify_example, verify_ode_formal, verify_ode_numeric,
                      verify_pde_formal)

__version__ = "0.1.0"
