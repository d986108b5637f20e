"""Scattering-matrix synthesis and SVD subspace imaging for circular arrays."""

from .em import (
    AntennaArray,
    ComplexWavenumber,
    MediumParams,
    antenna_array,
    incident_field,
    lossless_wavenumber,
    smallness_index,
    wavelength,
    wavenumber,
)
from .forward import (
    Anomaly,
    ScatteringMatrix,
    add_noise,
    born_smatrix,
    contaminate_diagonal,
    exact_disc_smatrix,
    subtract,
)
from .imaging import (
    ImageMap,
    ImagingGrid,
    RankPolicy,
    SVDResult,
    argmax,
    fwhm,
    image_diag,
    image_full,
    select_rank,
    svd,
    test_vector,
    zero_diagonal,
)
from .specfun import SeriesTruncation, bessel_j, bessel_y, hankel1_0, jacobi_anger_partial
from .structure import (
    StructureConfig,
    ideal_plane_wave_matrix,
    migration_response,
    psi1,
    structure_diag,
    structure_full,
    validate,
    validate_diag_identity,
)

__version__ = "0.1.0"
