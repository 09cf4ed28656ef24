"""ulamstab: metrize b-metric spaces, certify contraction fixed points,
and verify stability of the Euler-Lagrange cubic functional equation on
quasi-normed spaces.

The public names of the package are those of its modules: each module's
``__all__`` is the one list of them.
"""

__version__ = "0.1.0"

from . import core_spaces, cubic_stability, errors, fixed_point, function_spaces, metrization
from .core_spaces import *  # noqa: F403
from .cubic_stability import *  # noqa: F403
from .errors import *  # noqa: F403
from .fixed_point import *  # noqa: F403
from .function_spaces import *  # noqa: F403
from .metrization import *  # noqa: F403

__all__ = ["__version__", *dict.fromkeys(
    name for module in (errors, core_spaces, metrization, fixed_point, cubic_stability,
                        function_spaces)
    for name in module.__all__)]
