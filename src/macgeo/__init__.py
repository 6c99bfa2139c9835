"""Geometric performance analysis of medium-access schemes: slotted ALOHA
versus regular lattice transmitter placements in multi-hop wireless
networks.  Reception areas, normalized transmission ranges, retransmission
counts, asymptotic limits and a relaying simulator, each cross-checked by
Monte Carlo."""

from .aloha import (AlohaResult, aloha_prob, aloha_prob_exponential,
                    mc_aloha_prob, optimize_range, prob_w_below, sample_w)
from .asymptotics import (alpha_inf_range, alpha_inf_table, beta_inf_range,
                          beta_inf_table)
from .errors import (DivergentMomentError, FloatRangeError, MacGeoError,
                     NonClosureError, PrecisionLossError, SingularityError,
                     StationaryPointError, UnboundedReceptionError,
                     UnsupportedFadingError)
from .multihop import (PacketRecord, SimConfig, progress, relay_step,
                       run_simulation, select_transmitters)
from .propagation import (ChannelModel, log_psi, psi, raster_field,
                          sample_fading, sir)
from .reception import (ContourTrace, RangeResult, grid_range,
                        grid_success_prob_fading,
                        grid_success_prob_nofading, lattice_probe,
                        max_range_membership, membership_grid,
                        normalized_range, trace_contour)
from .spatial import GridSpec, PointSet, gen_grid, gen_poisson, grid_density

__version__ = "0.1.0"
