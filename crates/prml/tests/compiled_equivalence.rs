//! The compiled≡interpreted property suite: for arbitrary generated rule
//! sets and event streams, the compiled rule path (lock-free
//! `matched_rules` condition phase + `fire_matched` effect phase) must be
//! indistinguishable from the AST interpreter — same match counts, same
//! effects, same errors (wording included), same resulting schemas and
//! profiles — with the interpreter acting as the untouched oracle.
//!
//! The generator deliberately produces rules the checker rejects (shadowed
//! loop variables, undeclared variables, non-SUS `SetContent` targets,
//! measures used as expressions) and rules whose bodies error at runtime
//! (division by zero, type mismatches, non-collection `Foreach` sources,
//! missing parameters): rejected sets must be rejected by the compiler
//! with the identical message, and erroring firings must error
//! identically, mutating both worlds identically up to the error point.
//!
//! The generator also builds loops in the shape the compiler plans —
//! Example 5.3's `Foreach t, c, a … If (Distance(Intersection(E,
//! a.geometry)) < k)` — and every variation that must fall back to the
//! plain nested loop: operands that read the innermost binding, SUS reads
//! in bodies that write, a `then` branch with `SetContent` or `AddLayer`,
//! an `else` branch, non-constant or `>` thresholds, and innermost items
//! whose `.geometry` is an error (text values) or null (a level no rule
//! made spatial). Hoisted invariants and the emptiness guard are
//! therefore held to the interpreter too.
//!
//! *Closed* loops — read-only loops that read neither the user model, nor
//! a parameter, nor an enclosing binding — are replayed by the compiled
//! set while the cube's stamp stays the same. The generator builds them
//! (Example 5.3's loop, a two-variable one, one nested in a loop whose
//! binding it does not read, one whose items fail `.geometry`) and each
//! twist that must keep a loop running every time: a SUS read in the body
//! (with the degree it reads raised before the loop) or in a source, a
//! parameter, a read of the enclosing binding, and a `SetContent` in the
//! body.
//!
//! *Range probes* — Example 5.2's `Foreach s in (<level>) If
//! (Distance(s.geometry, E) < k) then SelectInstance(s) endIf
//! endForeach`, which the compiled set answers through a level index —
//! have their own property: the shape and one deviation of each kind
//! (`<=` and `>`, a parameter `k`, an `else` branch, a second statement,
//! `E` first), over a null, non-point, erroring or non-geometry `E` (or
//! one with a non-finite or huge coordinate),
//! levels with null, non-finite or exactly-`k` member geometries, a
//! non-spatial level and an empty one, fired again after a store is
//! added next to the user.
//!
//! Each stream also exercises the engine-level lifecycle: every event
//! fires twice, so the second firing replays what the first stored, and
//! between the two a round may add a store member or a train line to
//! both worlds, which must make the second firing run the loop again. An
//! erroring firing *rolls back* both worlds to their pre-fire state (what
//! the engine's master-rollback does), and every other round
//! *re-publishes* the ruleset by recompiling it from scratch — a freshly
//! compiled set must be a drop-in replacement mid-stream.

use proptest::prelude::*;
use sdwp_geometry::{GeometricType, LineString, Point};
use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, Schema, SchemaBuilder};
use sdwp_olap::{CellValue, Cube};
use sdwp_prml::parse_rules;
use sdwp_prml::pretty::print_expr;
use sdwp_prml::{
    check_rules, Action, BinaryOp, CompiledRuleSet, EvalContext, EventSpec, Expr, Rule, RuleEngine,
    RuntimeEvent, Statement, StaticLayerSource, UnaryOp,
};
use sdwp_user::{LocationContext, Role, Session, SpatialSelectionInterest, UserProfile};

// ----- fixtures (the paper's sales warehouse, as in the unit tests) -----

fn sales_schema() -> Schema {
    SchemaBuilder::new("SalesDW")
        .dimension(
            DimensionBuilder::new("Store")
                .level(
                    "Store",
                    vec![
                        sdwp_model::Attribute::descriptor("name", AttributeType::Text),
                        sdwp_model::Attribute::new("address", AttributeType::Text),
                    ],
                )
                .simple_level("City", "name")
                .simple_level("State", "name")
                .build(),
        )
        .dimension(
            DimensionBuilder::new("Time")
                .simple_level("Day", "name")
                .build(),
        )
        .fact(
            FactBuilder::new("Sales")
                .measure("UnitSales", AttributeType::Float)
                .dimension("Store")
                .dimension("Time")
                .build(),
        )
        .build()
        .unwrap()
}

fn sales_cube() -> Cube {
    let mut cube = Cube::new(sales_schema());
    for i in 0..5 {
        cube.add_dimension_member(
            "Store",
            vec![
                ("Store.name", CellValue::from(format!("S{i}"))),
                ("City.name", CellValue::from(format!("City{i}"))),
                (
                    "Store.geometry",
                    CellValue::Geometry(Point::new(i as f64 * 10.0, 0.0).into()),
                ),
                (
                    "City.geometry",
                    CellValue::Geometry(Point::new(i as f64 * 10.0, 1.0).into()),
                ),
            ],
        )
        .unwrap();
    }
    cube.add_dimension_member("Time", vec![("Day.name", CellValue::from("Mon"))])
        .unwrap();
    cube
}

fn manager_profile() -> UserProfile {
    UserProfile::new("u1", "Octavio")
        .with_role(Role::new("RegionalSalesManager"))
        .with_interest(SpatialSelectionInterest::new("AirportCity"))
}

/// Two airports and two train lines: the coastal line runs through every
/// city (y = 1, x = 0…50) and the inland line zigzags through only cities
/// 1 and 4, so a train and a city can intersect or not.
fn layers() -> StaticLayerSource {
    let mut source = StaticLayerSource::new();
    source.insert(
        "Airport",
        vec![
            ("ALC".to_string(), Point::new(0.0, 1.0).into()),
            ("VLC".to_string(), Point::new(25.0, 1.0).into()),
        ],
    );
    let line = |coords: &[(f64, f64)]| LineString::from_tuples(coords).unwrap().into();
    source.insert(
        "Train",
        vec![
            ("coastal line".to_string(), line(&[(0.0, 1.0), (50.0, 1.0)])),
            (
                "inland line".to_string(),
                line(&[(10.0, 1.0), (25.0, 9.0), (40.0, 1.0)]),
            ),
        ],
    );
    source
}

// ----- generators -------------------------------------------------------

/// Model/user/parameter paths a generated expression may reference. Most
/// resolve; `SUS.DecisionMaker.visits` may be unset (runtime error),
/// `MD.Sales.UnitSales` is a measure (rejected in rule expressions) and
/// `s.name`, `s.geometry` and `c.geometry` reference loop variables that
/// may not be in scope.
const PATH_POOL: [&str; 12] = [
    "SUS.DecisionMaker.dm2role.name",
    "SUS.DecisionMaker.name",
    "SUS.DecisionMaker.visits",
    "MD.Sales.Store.City",
    "MD.Sales.Store.City.name",
    "MD.Sales.Store.Store.name",
    "GeoMD.Store.City",
    "MD.Sales.UnitSales",
    "threshold",
    "s.name",
    "s.geometry",
    "c.geometry",
];

const TEXT_POOL: [&str; 4] = ["RegionalSalesManager", "City1", "Mon", "x"];

/// Uniformly picks one element of a static pool (the vendored proptest
/// stand-in has no `prop::sample::select`).
fn pick<T: Copy + 'static>(pool: &'static [T]) -> impl Strategy<Value = T> {
    (0..pool.len()).prop_map(move |i| pool[i])
}

fn binary_op() -> impl Strategy<Value = BinaryOp> {
    pick(&[
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::And,
        BinaryOp::Or,
    ])
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-4i32..=8).prop_map(|n| Expr::Number(f64::from(n) * 0.5)),
        pick(&TEXT_POOL).prop_map(|t| Expr::Text(t.to_string())),
        any::<bool>().prop_map(Expr::Boolean),
        pick(&PATH_POOL).prop_map(Expr::path),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (pick(&[UnaryOp::Neg, UnaryOp::Not]), inner.clone()).prop_map(|(op, operand)| {
                Expr::Unary {
                    op,
                    operand: Box::new(operand),
                }
            }),
            (binary_op(), inner.clone(), inner.clone()).prop_map(|(op, left, right)| {
                Expr::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call {
                function: "Distance".into(),
                args: vec![a, b],
            }),
            inner.clone().prop_map(|a| Expr::Call {
                function: "Distance".into(),
                args: vec![a],
            }),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Call {
                function: "Intersection".into(),
                args: vec![a, b],
            }),
        ]
    })
}

fn action_strategy() -> impl Strategy<Value = Statement> {
    let sus_target = pick(&[
        "SUS.DecisionMaker.visits",
        "SUS.DecisionMaker.theme",
        "MD.Sales.Store", // rejected: SetContent needs a SUS path
    ])
    .prop_map(Expr::path);
    let select_target = pick(&[
        "s", // a loop variable, declared or not
        "c",
        "MD.Sales.Store.City",
        "GeoMD.Store.City",
    ])
    .prop_map(Expr::path);
    let spatial_element =
        pick(&["MD.Sales.Store.geometry", "MD.Sales.Store.City.geometry"]).prop_map(Expr::path);
    prop_oneof![
        (sus_target, expr_strategy())
            .prop_map(|(target, value)| Statement::Action(Action::SetContent { target, value })),
        select_target.prop_map(|target| Statement::Action(Action::SelectInstance { target })),
        pick(&["Airport", "Train"]).prop_map(|name| Statement::Action(Action::AddLayer {
            name: name.into(),
            geometry: GeometricType::Point,
        })),
        spatial_element.prop_map(|element| Statement::Action(Action::BecomeSpatial {
            element,
            geometry: GeometricType::Point,
        })),
    ]
}

fn loop_header() -> impl Strategy<Value = (Vec<String>, Vec<Expr>)> {
    let source = pick(&[
        "MD.Sales.Store.City",
        "MD.Sales.Store.Store",
        "GeoMD.Store.City",
        "GeoMD.Airport", // layers: unknown until an AddLayer ran
        "GeoMD.Train",
        "SUS.DecisionMaker.name", // rejected: not an MD/GeoMD path
    ])
    .prop_map(Expr::path)
    .boxed();
    let names = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    prop_oneof![
        source.clone().prop_map(move |s| (names(&["s"]), vec![s])),
        (source.clone(), source.clone()).prop_map(move |(a, b)| (names(&["s", "c"]), vec![a, b])),
        (source.clone(), source.clone(), source)
            .prop_map(move |(a, b, c)| (names(&["s", "c", "t"]), vec![a, b, c])),
    ]
}

/// What a spatial loop may iterate besides Example 5.3's own sources: the
/// two layers, a layer the layer source knows nothing of (added empty),
/// store cities (point geometries), a level no rule makes spatial
/// (`.geometry` reads null) and city names (`.geometry` on a text value is
/// an error — the emptiness guard's failing precondition).
const SPATIAL_SOURCES: [&str; 6] = [
    "GeoMD.Train",
    "GeoMD.Airport",
    "GeoMD.Depot",
    "GeoMD.Store.City",
    "MD.Sales.Store.State",
    "MD.Sales.Store.City.name",
];

/// The loop-variable orders of a spatial loop header.
const ORDERS: [[&str; 3]; 6] = [
    ["t", "c", "a"],
    ["t", "a", "c"],
    ["c", "t", "a"],
    ["c", "a", "t"],
    ["a", "t", "c"],
    ["a", "c", "t"],
];

const SUS_LOCATION: &str = "SUS.DecisionMaker.dm2session.s2location.geometry";

/// Example 5.3's source for each spatial loop variable.
fn paper_source(variable: &str) -> &'static str {
    match variable {
        "t" => "GeoMD.Train",
        "c" => "GeoMD.Store.City",
        _ => "GeoMD.Airport",
    }
}

fn geometry_of(variable: &str) -> Expr {
    Expr::path(&format!("{variable}.geometry"))
}

fn call(function: &str, args: Vec<Expr>) -> Expr {
    Expr::Call {
        function: function.into(),
        args,
    }
}

/// Ways a spatial loop departs from the one shape the compiler guards (a
/// draw past the last one keeps the shape).
#[derive(Debug, Clone, Copy)]
enum Deviation {
    /// `E` is a bare geometry: nothing to hoist.
    BareOperand,
    /// `E` reads the innermost variable: not invariant.
    OperandReadsInnermost,
    /// The probed geometry is the outermost variable's (often over city
    /// names), against an `E` that is always empty: an error reading it
    /// must still surface.
    ProbesOuter,
    /// `>`: +∞ satisfies it, so an empty `E` decides nothing.
    Greater,
    /// A parameter threshold instead of a constant.
    ParamThreshold,
    /// The `then` branch writes the user model — the AirportCity degree,
    /// which the branch also reads, as Example 5.3's first rule does.
    ThenSetContent,
    /// The `then` branch adds a layer.
    ThenAddLayer,
    /// An `else` branch.
    Else,
    /// An `else` branch that increments the AirportCity degree, so the
    /// body writes on every item the condition rejects.
    Tally,
}

const DEVIATIONS: [Deviation; 9] = [
    Deviation::BareOperand,
    Deviation::OperandReadsInnermost,
    Deviation::ProbesOuter,
    Deviation::Greater,
    Deviation::ParamThreshold,
    Deviation::ThenSetContent,
    Deviation::ThenAddLayer,
    Deviation::Else,
    Deviation::Tally,
];

/// A loop in Example 5.3's shape, `Foreach … If (Distance(Intersection(E,
/// v.geometry)) < k) then SelectInstance(…) endIf endForeach`: one to three
/// variables in any order, each over Example 5.3's source for it or any of
/// [`SPATIAL_SOURCES`], split over one or two nested headers, `E` an `Intersection` of outer variables' geometries
/// and the (null) SUS location, usually with the three layers added first. Half
/// of the loops keep exactly the shape the compiler guards; the others
/// take one [`Deviation`] that must send them down the plain nested loop.
fn spatial_loop() -> impl Strategy<Value = Statement> {
    let header = (
        0usize..ORDERS.len(),
        1usize..4,
        0usize..3,
        prop::collection::vec((any::<bool>(), pick(&SPATIAL_SOURCES)), 3),
    );
    let choices = (
        0usize..3,
        0usize..3,
        any::<bool>(),
        any::<bool>(),
        0usize..8,
    );
    let deviation = 0usize..2 * DEVIATIONS.len();
    (header, choices, deviation).prop_map(
        |((order, count, split, sources), (x, y, le, alt, layers), deviation)| {
            let deviation = DEVIATIONS.get(deviation).copied();
            let declared = &ORDERS[order][..count];
            let innermost = declared[count - 1];
            // Outer variables' geometries, or the SUS location (null: the
            // session has none) where there is no outer variable.
            let outer = |i: usize| match declared[..count - 1].get(i) {
                Some(variable) => geometry_of(variable),
                None => Expr::path(SUS_LOCATION),
            };
            let increment = || {
                let degree = || Expr::path("SUS.DecisionMaker.dm2airportcity.degree");
                Statement::Action(Action::SetContent {
                    target: degree(),
                    value: Expr::Binary {
                        op: BinaryOp::Add,
                        left: Box::new(degree()),
                        right: Box::new(Expr::Number(1.0)),
                    },
                })
            };
            let sus = || Expr::path(SUS_LOCATION);
            let hoisted = match deviation {
                Some(Deviation::BareOperand) => outer(x),
                Some(Deviation::ProbesOuter) => call("Intersection", vec![sus(), sus()]),
                Some(Deviation::OperandReadsInnermost) => {
                    call("Intersection", vec![outer(x), geometry_of(innermost)])
                }
                _ => call("Intersection", vec![outer(x), outer(y)]),
            };
            let probed = match deviation {
                Some(Deviation::ProbesOuter) => declared[0],
                _ => innermost,
            };
            let op = match deviation {
                Some(Deviation::Greater) => BinaryOp::Gt,
                _ if le => BinaryOp::Le,
                _ => BinaryOp::Lt,
            };
            let threshold = match deviation {
                Some(Deviation::ParamThreshold) => Expr::path("threshold"),
                _ => Expr::Number(if alt { 0.5 } else { 50.0 }),
            };
            let condition = Expr::Binary {
                op,
                left: Box::new(call(
                    "Distance",
                    vec![call("Intersection", vec![hoisted, geometry_of(probed)])],
                )),
                right: Box::new(threshold),
            };
            let select = |variable: &str| {
                Statement::Action(Action::SelectInstance {
                    target: Expr::path(variable),
                })
            };
            let then_branch = vec![match deviation {
                Some(Deviation::ThenSetContent) => increment(),
                Some(Deviation::ThenAddLayer) => Statement::Action(Action::AddLayer {
                    name: "Airport".into(),
                    geometry: GeometricType::Point,
                }),
                _ => select(if alt { declared[0] } else { innermost }),
            }];
            let else_branch = match deviation {
                Some(Deviation::Else) => vec![select(declared[0])],
                Some(Deviation::Tally) => vec![increment()],
                _ => Vec::new(),
            };
            let split = split % count;
            let header = |range: std::ops::Range<usize>| {
                (
                    declared[range.clone()]
                        .iter()
                        .map(|v| v.to_string())
                        .collect(),
                    declared[range.clone()]
                        .iter()
                        .zip(range.clone().zip(&sources[range]))
                        .map(|(variable, (position, &(paper, other)))| {
                            Expr::path(match deviation {
                                Some(Deviation::ProbesOuter) if position == 0 && alt => {
                                    "MD.Sales.Store.City.name"
                                }
                                _ if paper => paper_source(variable),
                                _ => other,
                            })
                        })
                        .collect(),
                )
            };
            let (variables, loop_sources) = header(split..count);
            let mut statement = Statement::Foreach {
                variables,
                sources: loop_sources,
                body: vec![Statement::If {
                    condition,
                    then_branch,
                    else_branch,
                }],
            };
            if split > 0 {
                let (variables, loop_sources) = header(0..split);
                statement = Statement::Foreach {
                    variables,
                    sources: loop_sources,
                    body: vec![statement],
                };
            }
            if layers == 0 {
                // Layer sources then resolve only if another statement
                // added the layers.
                return statement;
            }
            let add = |name: &str| {
                Statement::Action(Action::AddLayer {
                    name: name.into(),
                    geometry: GeometricType::Point,
                })
            };
            Statement::If {
                condition: Expr::Boolean(true),
                then_branch: vec![add("Airport"), add("Train"), add("Depot"), statement],
                else_branch: Vec::new(),
            }
        },
    )
}

/// The loops the compiler marks closed.
#[derive(Debug, Clone, Copy)]
enum Closed {
    /// Example 5.3's `Foreach t, c, a`.
    Train,
    /// `Foreach t, c … If (Distance(Intersection(t.geometry, c.geometry))
    /// < k) then SelectInstance(c)`.
    Pair,
    /// Example 5.3's loop inside `Foreach o in (GeoMD.Store.City)`.
    Nested,
}

/// What happens to a closed loop: nothing, a failing item, or a twist
/// that makes it run on every firing.
#[derive(Debug, Clone, Copy)]
enum Twist {
    /// Cities are read by name: `.geometry` on a text fails, and the
    /// replayed error must be the interpreter's.
    TextItems,
    /// The condition also reads the AirportCity degree, which the rule
    /// raises before the loop, so each firing sees another value.
    SusInBody,
    /// A source is an expression over the session location.
    SusInSource,
    /// The threshold is the designer parameter.
    Param,
    /// The condition reads the enclosing loop's `o` (a nested loop only).
    OuterBinding,
    /// The `then` branch also writes the user model.
    SetContent,
}

const TWISTS: [Twist; 6] = [
    Twist::TextItems,
    Twist::SusInBody,
    Twist::SusInSource,
    Twist::Param,
    Twist::OuterBinding,
    Twist::SetContent,
];

/// A closed loop of one of the [`Closed`] shapes, after the layers it
/// reads are added; half of them take one [`Twist`].
fn closed_loop() -> impl Strategy<Value = Statement> {
    let shape = pick(&[Closed::Train, Closed::Pair, Closed::Nested]);
    let threshold = pick(&[0.5, 15.0, 50.0]);
    (shape, threshold, 0usize..2 * TWISTS.len()).prop_map(|(shape, k, twist)| {
        let twist = TWISTS.get(twist).copied();
        let cities = match twist {
            Some(Twist::TextItems) => "MD.Sales.Store.City.name",
            _ => "GeoMD.Store.City",
        };
        let (variables, mut sources, mut operand) = match shape {
            Closed::Pair => (
                vec!["t", "c"],
                vec![Expr::path("GeoMD.Train"), Expr::path(cities)],
                call("Intersection", vec![geometry_of("t"), geometry_of("c")]),
            ),
            Closed::Train | Closed::Nested => (
                vec!["t", "c", "a"],
                vec![
                    Expr::path("GeoMD.Train"),
                    Expr::path(cities),
                    Expr::path("GeoMD.Airport"),
                ],
                call(
                    "Intersection",
                    vec![
                        call("Intersection", vec![geometry_of("t"), geometry_of("c")]),
                        geometry_of("a"),
                    ],
                ),
            ),
        };
        if let (Some(Twist::OuterBinding), Closed::Nested) = (twist, shape) {
            operand = call("Intersection", vec![operand, geometry_of("o")]);
        }
        if let Some(Twist::SusInSource) = twist {
            sources[0] = call(
                "Intersection",
                vec![Expr::path("GeoMD.Train"), Expr::path(SUS_LOCATION)],
            );
        }
        let degree = || Expr::path("SUS.DecisionMaker.dm2airportcity.degree");
        let mut condition = Expr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(call("Distance", vec![operand])),
            right: Box::new(match twist {
                Some(Twist::Param) => Expr::path("threshold"),
                _ => Expr::Number(k),
            }),
        };
        if let Some(Twist::SusInBody) = twist {
            condition = Expr::Binary {
                op: BinaryOp::And,
                left: Box::new(condition),
                right: Box::new(Expr::Binary {
                    op: BinaryOp::Gt,
                    left: Box::new(degree()),
                    right: Box::new(Expr::Number(1.0)),
                }),
            };
        }
        let mut then_branch = vec![Statement::Action(Action::SelectInstance {
            target: Expr::path("c"),
        })];
        if let Some(Twist::SetContent) = twist {
            then_branch.push(Statement::Action(Action::SetContent {
                target: Expr::path("SUS.DecisionMaker.theme"),
                value: Expr::Text("x".into()),
            }));
        }
        let mut statement = Statement::Foreach {
            variables: variables.iter().map(|v| v.to_string()).collect(),
            sources,
            body: vec![Statement::If {
                condition,
                then_branch,
                else_branch: Vec::new(),
            }],
        };
        if let Closed::Nested = shape {
            statement = Statement::Foreach {
                variables: vec!["o".into()],
                sources: vec![Expr::path("GeoMD.Store.City")],
                body: vec![statement],
            };
        }
        let add = |name: &str| {
            Statement::Action(Action::AddLayer {
                name: name.into(),
                geometry: GeometricType::Point,
            })
        };
        let mut block = vec![add("Airport"), add("Train")];
        if let Some(Twist::SusInBody) = twist {
            block.push(Statement::Action(Action::SetContent {
                target: degree(),
                value: Expr::Binary {
                    op: BinaryOp::Add,
                    left: Box::new(degree()),
                    right: Box::new(Expr::Number(1.0)),
                },
            }));
        }
        block.push(statement);
        Statement::If {
            condition: Expr::Boolean(true),
            then_branch: block,
            else_branch: Vec::new(),
        }
    })
}

fn stmt_strategy() -> impl Strategy<Value = Statement> {
    prop_oneof![action_strategy(), spatial_loop(), closed_loop()].prop_recursive(
        3,
        16,
        3,
        |inner| {
            prop_oneof![
                action_strategy(),
                spatial_loop(),
                closed_loop(),
                (
                    expr_strategy(),
                    prop::collection::vec(inner.clone(), 0..3),
                    prop::collection::vec(inner.clone(), 0..2),
                )
                    .prop_map(|(condition, then_branch, else_branch)| {
                        Statement::If {
                            condition,
                            then_branch,
                            else_branch,
                        }
                    }),
                (loop_header(), prop::collection::vec(inner, 0..3)).prop_map(
                    |((variables, sources), body)| Statement::Foreach {
                        variables,
                        sources,
                        body,
                    }
                ),
            ]
        },
    )
}

/// A rule body: random statements, or — for three rules in four, so that
/// planned loops fire in sets the checker accepts — spatial or closed
/// loops alone.
fn body_strategy() -> impl Strategy<Value = Vec<Statement>> {
    let spatial = || prop::collection::vec(spatial_loop(), 1..3);
    prop_oneof![
        prop::collection::vec(stmt_strategy(), 0..4),
        spatial(),
        spatial(),
        prop::collection::vec(closed_loop(), 1..3),
    ]
}

/// Between an event's two firings, adds the same thing to both worlds:
/// nothing (`0`), a store in a new city on the coastal line, 5 km from
/// ALC (`1`), or a north–south train line through City2 (`2`).
fn grow(kind: u8, cubes: [&mut Cube; 2]) {
    for cube in cubes {
        match kind {
            1 => {
                let at = |y: f64| CellValue::Geometry(Point::new(5.0, y).into());
                cube.add_dimension_member(
                    "Store",
                    vec![
                        ("Store.name", CellValue::from("S5")),
                        ("City.name", CellValue::from("City5")),
                        ("Store.geometry", at(0.0)),
                        ("City.geometry", at(1.0)),
                    ],
                )
                .unwrap();
            }
            2 => {
                let line = LineString::from_tuples(&[(20.0, -5.0), (20.0, 5.0)]).unwrap();
                cube.add_layer_instance("Train", "branch line", line.into())
                    .unwrap();
            }
            _ => {}
        }
    }
}

fn event_strategy() -> impl Strategy<Value = EventSpec> {
    let element = pick(&[
        "GeoMD.Store.City",
        "MD.Sales.Store.City",
        "GeoMD.Store.Store",
    ])
    .prop_map(Expr::path);
    prop_oneof![
        Just(EventSpec::SessionStart),
        Just(EventSpec::SessionEnd),
        (element, expr_strategy()).prop_map(|(element, condition)| {
            EventSpec::SpatialSelection { element, condition }
        }),
    ]
}

/// Derives the round's runtime event from a generated pick: session
/// events, or a spatial selection aimed at a generated rule's own event
/// spec (element text from the rule, expression text from its printed
/// condition when `with_expr`) so the match phase sees both hits and
/// near-misses.
fn event_for(pick: u8, with_expr: bool, rules: &[Rule]) -> RuntimeEvent {
    match pick % 4 {
        0 => RuntimeEvent::SessionStart,
        1 => RuntimeEvent::SessionEnd,
        _ => {
            let spatial = rules.iter().find_map(|rule| match &rule.event {
                EventSpec::SpatialSelection { element, condition } => Some((element, condition)),
                _ => None,
            });
            match spatial {
                Some((element, condition)) => RuntimeEvent::SpatialSelection {
                    element: print_expr(element),
                    expression: with_expr.then(|| print_expr(condition)),
                },
                None => RuntimeEvent::spatial_selection("GeoMD.Store.City"),
            }
        }
    }
}

// ----- the property -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Compiled and interpreted execution agree on arbitrary rule sets and
    /// event streams: match decisions, effects, errors (wording included),
    /// schemas and profiles — across rollback rounds (erroring firings
    /// restore the pre-fire world, like the engine's master rollback) and
    /// re-publish rounds (the ruleset is recompiled mid-stream).
    #[test]
    fn compiled_execution_matches_the_interpreter(
        specs in prop::collection::vec(
            (event_strategy(), body_strategy()),
            1..4,
        ),
        picks in prop::collection::vec((any::<u8>(), any::<bool>(), 0u8..3), 1..6),
        threshold in prop_oneof![Just(None), (-2.0f64..8.0).prop_map(Some)],
    ) {
        let rules: Vec<Rule> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (event, body))| Rule {
                name: format!("r{i}"),
                event,
                body,
            })
            .collect();
        let schema = sales_schema();
        let checked = check_rules(&rules, &schema);
        let mut compiled = match (checked, CompiledRuleSet::compile(&rules, &schema)) {
            (Err(check_err), Err(compile_err)) => {
                // A set the checker rejects is rejected by the compiler
                // with the identical message; nothing to fire.
                prop_assert_eq!(check_err.to_string(), compile_err.to_string());
                return Ok(());
            }
            (Ok(classes), Ok(compiled)) => {
                prop_assert_eq!(classes, compiled.classes());
                compiled
            }
            (checked, compiled) => {
                return Err(TestCaseError::fail(format!(
                    "checker and compiler disagree: {checked:?} vs {:?}",
                    compiled.map(|c| c.len())
                )))
            }
        };

        let mut engine = RuleEngine::new();
        for rule in &rules {
            engine.add_rule(rule.clone());
        }

        // Two identical worlds, advanced in lock-step; the interpreter's
        // is the oracle.
        let mut cube_i = sales_cube();
        let mut profile_i = manager_profile();
        let mut cube_c = sales_cube();
        let mut profile_c = manager_profile();
        let source = layers();
        let session = Session::start(1, "u1");

        for (round, (pick, with_expr, growth)) in picks.iter().enumerate() {
            let event = event_for(*pick, *with_expr, &rules);
            for firing in 0..2 {
                if firing == 1 {
                    grow(*growth, [&mut cube_i, &mut cube_c]);
                }
                // The pre-fire state both worlds roll back to on error (the
                // engine restores the published snapshot and drops the
                // profile clone without upserting).
                let cube_before = cube_i.clone();
                let profile_before = profile_i.clone();

                let mut ctx = EvalContext::new(&mut cube_i, &mut profile_i)
                    .with_session(&session)
                    .with_layer_source(&source);
                if let Some(t) = threshold {
                    ctx = ctx.with_parameter("threshold", t);
                }
                let interpreted = engine.fire(&event, &mut ctx);
                drop(ctx);

                // Compiled path exactly as the engine runs it: lock-free
                // condition phase first, then the effect phase.
                let matched = compiled.matched_rules(&event);
                let mut ctx = EvalContext::new(&mut cube_c, &mut profile_c)
                    .with_session(&session)
                    .with_layer_source(&source);
                if let Some(t) = threshold {
                    ctx = ctx.with_parameter("threshold", t);
                }
                let compiled_fired = compiled.fire_matched(&matched, &mut ctx);
                drop(ctx);

                let errored = match (interpreted, compiled_fired) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(matched.len(), a.rules_matched, "round {} firing {}", round, firing);
                        prop_assert_eq!(&a, &b, "round {} firing {}", round, firing);
                        false
                    }
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a.to_string(), b.to_string(), "round {} firing {}", round, firing);
                        true
                    }
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "round {round} firing {firing}: interpreter {a:?} vs compiled {b:?}"
                        )))
                    }
                };

                // However the firing went, both worlds mutated identically.
                prop_assert_eq!(cube_i.schema(), cube_c.schema(), "round {} firing {}", round, firing);
                prop_assert_eq!(&profile_i, &profile_c, "round {} firing {}", round, firing);

                if errored {
                    // Rollback: restore both worlds to the pre-fire state,
                    // as the serving engine does, and keep streaming.
                    cube_i = cube_before.clone();
                    cube_c = cube_before;
                    profile_i = profile_before.clone();
                    profile_c = profile_before;
                }
            }
            if round % 2 == 1 {
                // Re-publish round: a freshly compiled set must be a
                // drop-in replacement for the one in service.
                compiled = CompiledRuleSet::compile(&rules, &schema).unwrap();
            }
        }
    }
}

// ----- range probes -----------------------------------------------------

/// A store of a probe world: its point, null (`None`), or a point with a
/// non-finite coordinate (`Some((NaN, 0))`).
fn probe_store() -> impl Strategy<Value = Option<(f64, f64)>> {
    let point =
        || (-4i32..=4, -2i32..=2).prop_map(|(x, y)| Some((f64::from(x) * 2.5, f64::from(y) * 2.5)));
    prop_oneof![
        point(),
        point(),
        point(),
        point(),
        Just(None),
        Just(Some((f64::NAN, 0.0))),
    ]
}

/// The sales cube with the given stores (`Store.geometry` and
/// `City.geometry` both at the store's point) and one day.
fn probe_cube(stores: &[Option<(f64, f64)>]) -> Cube {
    let mut cube = Cube::new(sales_schema());
    for (i, store) in stores.iter().enumerate() {
        let mut cells = vec![("Store.name", CellValue::from(format!("S{i}")))];
        if let Some((x, y)) = *store {
            let at = CellValue::Geometry(Point::new(x, y).into());
            cells.extend([("Store.geometry", at.clone()), ("City.geometry", at)]);
        }
        cube.add_dimension_member("Store", cells).unwrap();
    }
    cube.add_dimension_member("Time", vec![("Day.name", CellValue::from("Mon"))])
        .unwrap();
    cube
}

/// What `E` is in a probe loop.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The session location: a point, or null for a session without one.
    Location,
    /// `Intersection(location, location)`: a geometry collection.
    Collection,
    /// `Intersection(t.geometry, t.geometry)` inside `Foreach t in
    /// (GeoMD.Train)`: lines, keyed on the train.
    Train,
    /// `Centroid` of a text: fails.
    Failing,
    /// A text: `Distance` fails on the first member with a geometry.
    Text,
}

/// How a probe loop departs from Example 5.2's shape.
#[derive(Debug, Clone, Copy)]
enum ProbeDeviation {
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// The threshold is the designer parameter.
    ParamK,
    /// An `else` branch.
    Else,
    /// A second statement in the `then` branch.
    SecondStatement,
    /// `Distance(E, s.geometry)`.
    Reversed,
}

const PROBE_DEVIATIONS: [ProbeDeviation; 6] = [
    ProbeDeviation::Le,
    ProbeDeviation::Gt,
    ProbeDeviation::ParamK,
    ProbeDeviation::Else,
    ProbeDeviation::SecondStatement,
    ProbeDeviation::Reversed,
];

/// A rule holding one probe loop: its text, whether the compiled set must
/// answer it through a level index when the session has a location and
/// every store has a finite point, and its constant threshold.
fn probe_rule() -> impl Strategy<Value = (String, bool, f64)> {
    let source = pick(&[
        "GeoMD.Store",
        "GeoMD.Store.City",
        "MD.Sales.Store.State", // no rule makes it spatial: every geometry is null
    ]);
    let target = pick(&[
        Target::Location,
        Target::Location,
        Target::Collection,
        Target::Train,
        Target::Failing,
        Target::Text,
    ]);
    let k = pick(&[0.0, 2.5, 5.0, 7.5, 1e6]);
    let deviation = 0usize..2 * PROBE_DEVIATIONS.len();
    (source, target, k, deviation).prop_map(|(source, target, k, deviation)| {
        let deviation = PROBE_DEVIATIONS.get(deviation).copied();
        let e = match target {
            Target::Location => SUS_LOCATION.to_string(),
            Target::Collection => format!("Intersection({SUS_LOCATION}, {SUS_LOCATION})"),
            Target::Train => "Intersection(t.geometry, t.geometry)".to_string(),
            Target::Failing => "Centroid(SUS.DecisionMaker.name)".to_string(),
            Target::Text => "SUS.DecisionMaker.name".to_string(),
        };
        let op = match deviation {
            Some(ProbeDeviation::Le) => "<=",
            Some(ProbeDeviation::Gt) => ">",
            _ => "<",
        };
        let threshold = match deviation {
            Some(ProbeDeviation::ParamK) => "threshold".to_string(),
            _ => k.to_string(),
        };
        let distance = match deviation {
            Some(ProbeDeviation::Reversed) => format!("Distance({e}, s.geometry)"),
            _ => format!("Distance(s.geometry, {e})"),
        };
        let then = match deviation {
            Some(ProbeDeviation::Else) => "SelectInstance(s) else SelectInstance(s)",
            Some(ProbeDeviation::SecondStatement) => {
                "SelectInstance(s) SetContent(SUS.DecisionMaker.theme, 'x')"
            }
            _ => "SelectInstance(s)",
        };
        let probe = format!(
            "Foreach s in ({source}) If ({distance} {op} {threshold}) then {then} endIf endForeach"
        );
        let body = match target {
            Target::Train => {
                format!("AddLayer('Train', LINE) Foreach t in (GeoMD.Train) {probe} endForeach")
            }
            _ => probe,
        };
        let indexed = deviation.is_none()
            && matches!(
                target,
                Target::Location | Target::Collection | Target::Train
            )
            && source != "MD.Sales.Store.State";
        (
            format!("Rule:probe When SessionStart do {body} endWhen"),
            indexed,
            k,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A probe loop, its deviations and its edge cases leave exactly the
    /// interpreter's effect or error, before and after a store is added
    /// next to the user, and the Example 5.2 shape is answered through the
    /// level index, rebuilt for the grown cube.
    #[test]
    fn range_probes_match_the_interpreter(
        generated in prop::collection::vec(probe_store(), 0..7),
        at_k in any::<bool>(),
        location in pick(&[None, Some(0.0), Some(0.0), Some(f64::NAN), Some(1e200)]),
        rule in probe_rule(),
        threshold in prop_oneof![Just(None), Just(Some(5.0))],
    ) {
        let (text, indexed, k) = rule;
        let mut stores = generated;
        if at_k {
            // A store exactly `k` from the user at the origin.
            stores.push(Some((k, 0.0)));
        }
        let rules = parse_rules(&text).unwrap();
        let compiled = CompiledRuleSet::compile(&rules, &sales_schema()).unwrap();
        let mut engine = RuleEngine::new();
        engine.add_rule(rules[0].clone());
        // The user at the origin, nowhere, at a non-finite point, or far
        // enough away that a distance could overflow.
        let session = match location {
            Some(x) => Session::start_at(1, "u1", LocationContext::at_point("here", x, 0.0)),
            None => Session::start(1, "u1"),
        };
        let source = layers();
        let mut cube_i = probe_cube(&stores);
        let mut cube_c = cube_i.clone();
        for firing in 0..2 {
            if firing == 1 {
                for cube in [&mut cube_i, &mut cube_c] {
                    let near = CellValue::Geometry(Point::new(1.0, 0.5).into());
                    cube.add_dimension_member(
                        "Store",
                        vec![("Store.geometry", near.clone()), ("City.geometry", near)],
                    )
                    .unwrap();
                }
            }
            let builds = compiled.level_index_builds();
            let mut fired = Vec::new();
            for (cube, use_compiled) in [(&mut cube_i, false), (&mut cube_c, true)] {
                let mut profile = manager_profile();
                let mut ctx = EvalContext::new(cube, &mut profile)
                    .with_session(&session)
                    .with_layer_source(&source);
                if let Some(t) = threshold {
                    ctx = ctx.with_parameter("threshold", t);
                }
                let report = if use_compiled {
                    compiled.fire(&RuntimeEvent::SessionStart, &mut ctx)
                } else {
                    engine.fire(&RuntimeEvent::SessionStart, &mut ctx)
                };
                drop(ctx);
                fired.push((report.map_err(|e| e.to_string()), profile));
            }
            prop_assert_eq!(&fired[0], &fired[1], "firing {}: {}", firing, text);
            prop_assert_eq!(cube_i.schema(), cube_c.schema());
            let finite = stores.iter().flatten().all(|(x, _)| x.is_finite());
            if indexed && location == Some(0.0) && finite && !cube_c.dimension_table("Store").unwrap().table.is_empty() {
                prop_assert_eq!(
                    compiled.level_index_builds(),
                    builds + 1,
                    "firing {}: {} builds its index for the cube", firing, text
                );
            }
        }
    }
}
