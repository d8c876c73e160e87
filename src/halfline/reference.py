"""Embedded reference data: published comparison tables the CLI verifies against.

Values are verbatim transcriptions of the printed comparison tables (T1-T7)
plus the two independently published slopes used as yardsticks.  They are
data, not targets this package tunes toward: the verify subcommand diffs a
fresh solve against the relevant column at the documented tolerance.

Known internal inconsistencies kept as printed:

- T5's beta entry for lam=1/4 reads 1.787, yet the same row's slope column
  holds 0.9100000, and the slope equals beta/2 analytically, implying
  beta = 1.8200.  The transcription keeps 1.787; the runnable preset uses
  the self-consistent 1.8200 (see cli).
- T3's lam=1 row tabulates (N, alpha, L) = (13, 0.655, 1.115) and the
  Laguerre slope 0.825288795, but those parameters do not give that slope.
  The converged solve (residual max|F| ~ 3e-11) gives f'(0) = 0.8276022.
  That is 2.2e-6 from the same row's rk entry 0.82760 and 4.6e-6 from the
  shooting oracle (0.8276069), but 2.31e-3 from the printed slope.  Newton
  runs from perturbed starts find the roots 0.2679318, 0.2993512, 0.821229
  and 0.8276022 of the tabulated system, none at 0.8252888.  The pair
  (alpha, L) = (1.0, 1.1), used by most rows, gives 0.8252881: 6.8e-7 from
  the printed slope, the accuracy at which the other five rows reproduce
  (4e-7 to 1.3e-4).  So the printed alpha and L belong to a different run
  than the printed slope.  The transcription keeps the printed values and
  the table3 preset keeps the tabulated alpha and L, so verify at lam=1
  reports the 2.3e-3 slope error and fails.
"""

from types import MappingProxyType

from .errors import ConfigurationError, ReferenceLookupError

AHMAD_SLOPE = -0.678301        # fluid film f'(0), shooting, six decimals
KOBAYASHI_SLOPE = -1.588071    # atomic screening y'(0), classical value


class ReferenceTable:
    """Immutable published table: abscissa column plus named value columns."""

    def __init__(self, table_id, columns, rows, slopes=None):
        self.table_id = table_id
        self.columns = tuple(columns)
        for row in rows:
            if len(row) != len(self.columns) + 1:
                raise ConfigurationError("row %r does not match columns %r" % (row, columns))
        self.rows = tuple((float(r[0]),
                           MappingProxyType(dict(zip(self.columns, map(float, r[1:])))))
                          for r in rows)
        self.slopes = MappingProxyType(dict(slopes)) if slopes else MappingProxyType({})

    def abscissas(self):
        return tuple(a for a, _ in self.rows)

    def column(self, name):
        """(abscissa, value) pairs down one named column."""
        if name not in self.columns:
            raise ReferenceLookupError("no column %r in %s" % (name, self.table_id))
        return tuple((a, vals[name]) for a, vals in self.rows)

    def value(self, abscissa, name):
        for a, vals in self.rows:
            if a == abscissa:   # column raises on a name it lacks
                return vals[name] if name in vals else self.column(name)
        raise ReferenceLookupError("no row at abscissa %r in %s" % (abscissa, self.table_id))

    def __repr__(self):
        return "ReferenceTable(%s, %d rows)" % (self.table_id, len(self.rows))


# fluid film profile f(z), four methods against two published solutions
TABLE1 = ReferenceTable(
    "T1", ("ahmad", "mglf", "hf", "sf", "numerical"),
    (
        (0.0, 1.00000, 1.00000, 1.00000, 1.00000, 1.00000),
        (0.2, 0.87220, 0.87261, 0.87261, 0.87278, 0.87260),
        (0.4, 0.76010, 0.76063, 0.76064, 0.76035, 0.76060),
        (0.6, 0.66190, 0.66243, 0.66243, 0.66178, 0.66240),
        (0.8, 0.57600, 0.57650, 0.57647, 0.57597, 0.57650),
        (1.0, 0.50100, 0.50144, 0.50139, 0.50115, 0.50140),
        (1.2, 0.43560, 0.43595, 0.43591, 0.43583, 0.43590),
        (1.6, 0.32890, 0.32920, 0.32917, 0.32905, 0.32920),
        (2.0, 0.24820, 0.24838, 0.24839, 0.24802, 0.24840),
        (2.5, 0.17440, 0.17455, 0.17459, 0.17426, 0.17450),
        (2.7, 0.15140, 0.15156, 0.15161, 0.15141, 0.15160),
        (3.0, 0.12250, 0.12261, 0.12270, 0.12265, 0.12260),
        (3.6, 0.08016, 0.08024, 0.08036, 0.08025, 0.08024),
        (4.0, 0.06042, 0.06047, 0.06060, 0.06033, 0.06047),
        (4.2, 0.05245, 0.05250, 0.05261, 0.05233, 0.05250),
        (4.4, 0.04553, 0.04558, 0.04567, 0.04543, 0.04558),
        (4.6, 0.03953, 0.03957, 0.03964, 0.03948, 0.03957),
        (4.8, 0.03432, 0.03435, 0.03440, 0.03434, 0.03435),
        (5.0, 0.02979, 0.02982, 0.02984, 0.02987, 0.02982),
    ),
    slopes={"ahmad": -0.681835, "mglf": -0.678297, "hf": -0.678301,
            "sf": -0.677843, "numerical": -0.678301},
)

# atomic screening profile y(x); the last two printed liao entries repeat
# (0.005784940 at both 20 and 30), so verification windows stop at x = 15
TABLE2 = ReferenceTable(
    "T2", ("liao", "mglf", "hf", "sf"),
    (
        (0.25, 0.755202000, 0.765698401, 0.754795330, 0.755501513),
        (0.50, 0.606987000, 0.611094841, 0.606658908, 0.606591374),
        (0.75, 0.502347000, 0.504222143, 0.502110510, 0.502017836),
        (1.00, 0.424008000, 0.426286491, 0.423811203, 0.424181905),
        (1.25, 0.363202000, 0.366441192, 0.363027725, 0.363696263),
        (2.00, 0.243009000, 0.245827159, 0.242918233, 0.243257878),
        (2.25, 0.215895000, 0.217768255, 0.215819818, 0.216156024),
        (2.50, 0.192984000, 0.193946429, 0.192917948, 0.193395401),
        (2.75, 0.173441000, 0.173698712, 0.173379623, 0.174078699),
        (3.00, 0.156633000, 0.156469166, 0.156573773, 0.157498937),
        (3.25, 0.142070000, 0.141769745, 0.142013368, 0.143125471),
        (3.50, 0.129370000, 0.129167788, 0.129316613, 0.130577926),
        (3.75, 0.118229000, 0.118284289, 0.118180209, 0.119583902),
        (4.00, 0.108404000, 0.108794792, 0.108360441, 0.109933372),
        (8.00, 0.036587300, 0.035764064, 0.036580427, 0.046325607),
        (15.00, 0.010805400, 0.009355939, 0.010803774, 0.049089345),
        (20.00, 0.005784940, 0.001828955, 0.005792831, 0.036992990),
        (30.00, 0.005784940, 0.000018510, 0.002252634, 0.024996549),
    ),
    slopes={"kobayashi": KOBAYASHI_SLOPE, "mglf": -1.158425,
            "hf": -1.588071, "sf": -1.580380},
)

# heated cone f'(0) by Laguerre method: slope, tuned (alpha, L) per exponent
TABLE3 = ReferenceTable(
    "T3", ("rk", "mglf", "alpha", "L"),
    (
        (0.0, 0.94760, 0.947697256, 1.0, 1.2985),
        (0.25, 0.91130, 0.911292295, 0.94869, 1.24093),
        (1.0 / 3.0, 0.90030, 0.900305806, 1.0, 1.15),
        (0.5, 0.87980, 0.879332090, 1.0, 1.09),
        (0.75, 0.85220, 0.852287074, 0.04, 1.0394),
        (1.0, 0.82760, 0.825288795, 0.655, 1.115),
    ),
)

# heated cone f'(0) by Hermite method: map scale k and seed parameter beta
TABLE4 = ReferenceTable(
    "T4", ("rk", "hf", "k", "beta"),
    (
        (0.0, 0.94760, 0.947350000, 0.00005, 1.8947),
        (0.25, 0.91130, 0.911300000, 0.00005, 1.8226),
        (1.0 / 3.0, 0.90030, 0.900350000, 0.00005, 1.8007),
        (0.5, 0.87980, 0.879330000, 0.00005, 1.75866),
        (0.75, 0.85220, 0.852100000, 0.00005, 1.7042),
        (1.0, 0.82760, 0.827600000, 0.00005, 1.6552),
    ),
)

# heated cone f'(0) by composite translates: mesh h and seed parameter beta
TABLE5 = ReferenceTable(
    "T5", ("rk", "sf", "h", "beta"),
    (
        (0.0, 0.94760, 0.94749990, 5.0, 1.895),
        (0.25, 0.91130, 0.9100000, 5.0, 1.787),
        (1.0 / 3.0, 0.90030, 0.9003098, 5.0, 1.80062),
        (0.5, 0.87980, 0.8798599, 5.0, 1.75972),
        (0.75, 0.85220, 0.8522499, 5.0, 1.7045),
        (1.0, 0.82760, 0.8276099, 5.0, 1.65522),
    ),
)

# heated cone derivative profile f'(eta) at lam = 1/4
TABLE6 = ReferenceTable(
    "T6", ("rk", "mglf", "hf", "sf"),
    (
        (0.0, 0.911295, 0.911292295, 0.911300000, 0.9100000),
        (0.1, 0.813604, 0.8136045732, 0.818966668, 0.8249495),
        (0.2, 0.721351, 0.7214333041, 0.739987010, 0.7593399),
        (0.3, 0.635531, 0.6357278583, 0.671904860, 0.6994390),
        (0.4, 0.556661, 0.5570128319, 0.612803846, 0.6357481),
        (0.5, 0.484997, 0.4854870213, 0.561171050, 0.5635668),
        (0.6, 0.420587, 0.4211045416, 0.515799214, 0.4836353),
        (0.7, 0.363276, 0.3636408416, 0.475715519, 0.4010437),
        (0.8, 0.312677, 0.3127459036, 0.440129003, 0.3224731),
        (0.9, 0.268264, 0.2679864241, 0.408391244, 0.2533653),
        (1.0, 0.229508, 0.2288793877, 0.379966629, 0.1964756),
        (1.1, 0.195878, 0.1949179596, 0.354409490, 0.1519869),
        (1.2, 0.166847, 0.1655912361, 0.331346774, 0.1184391),
        (1.3, 0.141837, 0.1403992695, 0.310464102, 0.0937062),
        (1.4, 0.120362, 0.1188633223, 0.291495126, 0.0756563),
        (1.5, 0.102025, 0.1005335321, 0.274212962, 0.0624714),
        (2.0, 0.043951, 0.0436775689, 0.207169774, 0.0315387),
        (2.5, 0.018546, 0.0196829528, 0.162014544, 0.0189928),
        (3.0, 0.007610, 0.0088012343, 0.130161222, 0.0106135),
        (3.5, 0.002953, 0.0030440964, 0.106855392, 0.0042628),
        (4.0, 0.000962, -0.0001159364, 0.089291515, -0.0006069),
        (4.5, 0.000123, -0.0014217904, 0.075727337, -0.0043205),
    ),
)

# heated cone derivative profile f'(eta) at lam = 3/4
TABLE7 = ReferenceTable(
    "T7", ("rk", "mglf", "hf", "sf"),
    (
        (0.0, 0.852193, 0.852287074, 0.852100000, 0.8522499),
        (0.1, 0.755377, 0.7553472043, 0.760260331, 0.7663430),
        (0.2, 0.665448, 0.6652437998, 0.682506144, 0.6986781),
        (0.3, 0.582985, 0.5826438854, 0.616097677, 0.6367457),
        (0.4, 0.508141, 0.5077870112, 0.558930301, 0.5721998),
        (0.5, 0.440849, 0.4406043145, 0.509365693, 0.5012224),
        (0.6, 0.380907, 0.3808120147, 0.466113136, 0.4248815),
        (0.7, 0.327973, 0.3279838418, 0.428144630, 0.3479289),
        (0.8, 0.281536, 0.2816065940, 0.394633242, 0.2762278),
        (0.9, 0.241013, 0.2411219871, 0.364907692, 0.2142853),
        (1.0, 0.205832, 0.2059574952, 0.338418505, 0.1641129),
        (1.1, 0.175434, 0.1755486532, 0.314712300, 0.1254656),
        (1.2, 0.149275, 0.1493544263, 0.293412523, 0.0967406),
        (1.3, 0.126821, 0.1268673543, 0.274204137, 0.0758559),
        (1.4, 0.107596, 0.1076195445, 0.256822044, 0.0608150),
        (1.5, 0.091196, 0.0911857686, 0.241041852, 0.0499612),
        (2.0, 0.039223, 0.0392999700, 0.180361082, 0.0249502),
        (2.5, 0.016574, 0.0165687080, 0.140011901, 0.0146721),
        (3.0, 0.006832, 0.0067312540, 0.111830465, 0.0076143),
        (3.5, 0.002668, 0.0026491548, 0.091374230, 0.0022177),
        (4.0, 0.000913, 0.0011427557, 0.076057527, -0.0019132),
        (4.5, 0.000237, 0.0006565451, 0.064292470, -0.0050431),
    ),
)
