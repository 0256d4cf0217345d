"""The configs that `bench/workloads.py` generates for its three workloads
on seeds 1 and 7, copied in as literals, so that tests pin what the
program makes of them without importing the benchmark."""

BENCH_CONFIGS = {
    ("verify_oracle", 1): {
        "field": {
            "kind": "corollary",
            "schedule": {
                "segments": [
                    {
                        "t0": 0.0,
                        "t1": 1.0,
                        "measure": {
                            "atoms": [
                                {"angle": 3.141592653589793, "weight": 0.7401531575127894},
                                {"angle": 2.282296916398161, "weight": 0.25984684248721057},
                            ],
                            "excluded_angle": 0.0,
                        },
                    },
                    {
                        "t0": 1.0,
                        "t1": 2.0,
                        "measure": {
                            "atoms": [
                                {"angle": 1.3977599489139234, "weight": 0.5016109780866618},
                                {"angle": 1.0542543795610892, "weight": 0.4983890219133382},
                            ],
                            "excluded_angle": 0.0,
                        },
                    },
                ],
            },
        },
        "integration": {"t0": 0.0, "t1": 2.0, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.3, 0.6, 0.9], "angles": 16},
        "checks": [
            "arc_lemma",
            "chain_rule",
            "cowen_pommerenke",
            "dilation_monotone",
            "dilation_tracking",
            "disk_invariance",
            "half_plane_julia",
            "julia",
            "nevanlinna_beta",
            "oracle_agreement",
            "schwarz_pick",
            "semigroup",
        ],
        "fixed_points": [
            {"angle": 3.141592653589793, "expected_role": "brfp"},
            {"angle": 0.0, "expected_role": "dw"},
        ],
    },
    ("verify_dilation", 1): {
        "field": {
            "kind": "reciprocal",
            "tau": {"angle": 0.0},
            "data": [
                {"angle": 0.6082765915110826, "alpha": 1.0040581103898947},
                {"angle": 1.8565946979619163, "alpha": 0.9906890071507468},
                {"angle": 3.1321086475891264, "alpha": 0.9800210008294791},
                {"angle": 4.395338356307911, "alpha": 0.9984076727067469},
                {"angle": 5.647860016569386, "alpha": 0.9731649224177902},
            ],
        },
        "integration": {"t0": 0.0, "t1": 2.0, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.3, 0.6, 0.9], "angles": 16},
        "checks": [
            "arc_lemma",
            "chain_rule",
            "cowen_pommerenke",
            "dilation_monotone",
            "dilation_tracking",
            "disk_invariance",
            "half_plane_julia",
            "julia",
            "nevanlinna_beta",
            "schwarz_pick",
            "semigroup",
        ],
        "fixed_points": [
            {"angle": 0.6082765915110826, "expected_role": "brfp"},
            {"angle": 1.8565946979619163, "expected_role": "brfp"},
            {"angle": 3.1321086475891264, "expected_role": "brfp"},
            {"angle": 4.395338356307911, "expected_role": "brfp"},
            {"angle": 5.647860016569386, "expected_role": "brfp"},
            {"angle": 0.0, "expected_role": "dw"},
        ],
    },
    ("simulate_grid", 1): {
        "field": {
            "kind": "berkson_porta",
            "tau": {"angle": 3.141592653589793},
            "p": {
                "schedule": {
                    "segments": [
                        {
                            "t0": 0.0,
                            "t1": 0.6666666666666666,
                            "measure": {
                                "atoms": [
                                    {"angle": 0.4797406135573414, "weight": 0.525859905342743},
                                    {"angle": 2.659298966833753, "weight": 0.5351999782946881},
                                    {"angle": 4.676368374282885, "weight": 0.4516892975556619},
                                ],
                                "excluded_angle": None,
                            },
                        },
                        {
                            "t0": 0.6666666666666666,
                            "t1": 1.3333333333333333,
                            "measure": {
                                "atoms": [
                                    {"angle": 1.1897447546340594, "weight": 0.46659606734991566},
                                    {"angle": 3.2867206152749637, "weight": 0.5118591368057427},
                                    {"angle": 5.293696062685406, "weight": 0.5054685695074572},
                                ],
                                "excluded_angle": None,
                            },
                        },
                        {
                            "t0": 1.3333333333333333,
                            "t1": 2.0,
                            "measure": {
                                "atoms": [
                                    {"angle": 1.7445074763104658, "weight": 0.549799623404675},
                                    {"angle": 3.9000730879951795, "weight": 0.5329646573039201},
                                    {"angle": 5.919709629678626, "weight": 0.46864938570613457},
                                ],
                                "excluded_angle": None,
                            },
                        },
                    ],
                },
                "imag_const": 0.29778501563267246,
            },
        },
        "integration": {"t0": 0.0, "t1": 2.0, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.2, 0.4, 0.6, 0.8], "angles": 32},
        "checks": [],
    },
    ("verify_oracle", 7): {
        "field": {
            "kind": "corollary",
            "schedule": {
                "segments": [
                    {
                        "t0": 0.0,
                        "t1": 1.0,
                        "measure": {
                            "atoms": [
                                {"angle": 3.141592653589793, "weight": 0.7145739540932157},
                                {"angle": 2.117578145987538, "weight": 0.28542604590678433},
                            ],
                            "excluded_angle": 0.0,
                        },
                    },
                    {
                        "t0": 1.0,
                        "t1": 2.0,
                        "measure": {
                            "atoms": [
                                {"angle": 1.5897115821665146, "weight": 0.5760155161065009},
                                {"angle": 1.122202516321754, "weight": 0.4239844838934991},
                            ],
                            "excluded_angle": 0.0,
                        },
                    },
                ],
            },
        },
        "integration": {"t0": 0.0, "t1": 2.0, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.3, 0.6, 0.9], "angles": 16},
        "checks": [
            "arc_lemma",
            "chain_rule",
            "cowen_pommerenke",
            "dilation_monotone",
            "dilation_tracking",
            "disk_invariance",
            "half_plane_julia",
            "julia",
            "nevanlinna_beta",
            "oracle_agreement",
            "schwarz_pick",
            "semigroup",
        ],
        "fixed_points": [
            {"angle": 3.141592653589793, "expected_role": "brfp"},
            {"angle": 0.0, "expected_role": "dw"},
        ],
    },
    ("verify_dilation", 7): {
        "field": {
            "kind": "reciprocal",
            "tau": {"angle": 0.0},
            "data": [
                {"angle": 0.6379528673807447, "alpha": 0.9923153863047366},
                {"angle": 1.8785464345920573, "alpha": 1.0039517062150718},
                {"angle": 3.1668270502431035, "alpha": 0.9632701703893065},
                {"angle": 4.3901427060894544, "alpha": 1.0088607699648762},
                {"angle": 5.631697436086331, "alpha": 1.0357683960734032},
            ],
        },
        "integration": {"t0": 0.0, "t1": 2.0, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.3, 0.6, 0.9], "angles": 16},
        "checks": [
            "arc_lemma",
            "chain_rule",
            "cowen_pommerenke",
            "dilation_monotone",
            "dilation_tracking",
            "disk_invariance",
            "half_plane_julia",
            "julia",
            "nevanlinna_beta",
            "schwarz_pick",
            "semigroup",
        ],
        "fixed_points": [
            {"angle": 0.6379528673807447, "expected_role": "brfp"},
            {"angle": 1.8785464345920573, "expected_role": "brfp"},
            {"angle": 3.1668270502431035, "expected_role": "brfp"},
            {"angle": 4.3901427060894544, "expected_role": "brfp"},
            {"angle": 5.631697436086331, "expected_role": "brfp"},
            {"angle": 0.0, "expected_role": "dw"},
        ],
    },
    ("simulate_grid", 7): {
        "field": {
            "kind": "berkson_porta",
            "tau": {"angle": 3.141592653589793},
            "p": {
                "schedule": {
                    "segments": [
                        {
                            "t0": 0.0,
                            "t1": 0.6666666666666666,
                            "measure": {
                                "atoms": [
                                    {"angle": 0.5711501458685443, "weight": 0.4831323276672388},
                                    {"angle": 2.5685896394228, "weight": 0.5156284234190831},
                                    {"angle": 4.665982855490981, "weight": 0.48501336732737893},
                                ],
                                "excluded_angle": None,
                            },
                        },
                        {
                            "t0": 0.6666666666666666,
                            "t1": 1.3333333333333333,
                            "measure": {
                                "atoms": [
                                    {"angle": 1.1384705348430448, "weight": 0.45158249086558344},
                                    {"angle": 3.2236180446598435, "weight": 0.4864923693175501},
                                    {"angle": 5.386847124369183, "weight": 0.5054750584098611},
                                ],
                                "excluded_angle": None,
                            },
                        },
                        {
                            "t0": 1.3333333333333333,
                            "t1": 2.0,
                            "measure": {
                                "atoms": [
                                    {"angle": 1.822420013348655, "weight": 0.546949766848099},
                                    {"angle": 3.856512364076222, "weight": 0.4639865419470759},
                                    {"angle": 5.975671914402139, "weight": 0.46653386568157246},
                                ],
                                "excluded_angle": None,
                            },
                        },
                    ],
                },
                "imag_const": 0.32325649465544,
            },
        },
        "integration": {"t0": 0.0, "t1": 2.0, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.2, 0.4, 0.6, 0.8], "angles": 32},
        "checks": [],
    },
}
