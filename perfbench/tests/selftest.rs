//! Self-tests of the benchmark's building blocks.

use perfbench::loadgen;
use perfbench::sampler::{quantile, tail_percentile, Sampler, Summary};
use perfbench::stats_text::{self, Value};
use perfbench::trace::{self_times, Span, Tracer};
use std::time::Instant;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // expected values from Python's statistics.quantiles(data, n=4)
    let cases: [(&[f64], [f64; 3]); 3] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], [2.75, 5.5, 8.25]),
        (&[3., 1., 4., 1., 5., 9., 2., 6., 5., 3., 5.], [2.0, 4.0, 5.0]),
        (&[0.5, 2.5, 1.0, 7.0, 4.0, 3.5, 10.0, 8.0], [1.375, 3.75, 7.75]),
    ];
    for (data, want) in cases {
        let s = Summary::of(data);
        assert!(close(s.p25, want[0]) && close(s.p50, want[1]) && close(s.p75, want[2]), "{s:?}");
    }
}

#[test]
fn quantile_clamps_to_the_sample_range() {
    let s = [1.0, 2.0, 3.0];
    assert_eq!(quantile(&s, 0.01), 1.0);
    assert_eq!(quantile(&s, 0.99), 3.0);
    assert_eq!(quantile(&[4.0], 0.5), 4.0);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    // 1..=100: p90 by the exclusive method sits at position 90.9
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = Summary::of(&v);
    assert_eq!((s.tail_pct, s.n, s.min, s.max), (90.0, 100, 1.0, 100.0));
    assert!(close(s.tail, 90.9), "{}", s.tail);
    // too small for any percentile: the maximum, labelled p100
    let s = Summary::of(&[5.0, 1.0, 3.0]);
    assert_eq!((s.tail_pct, s.tail), (100.0, 5.0));
}

#[test]
fn sampler_drops_warmup_operations() {
    let mut s = Sampler::new(2);
    let kept: Vec<bool> = [9.0, 8.0, 1.0, 2.0, 3.0].into_iter().map(|v| s.record(v)).collect();
    assert_eq!(kept, [false, false, true, true, true]);
    assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
    assert_eq!(s.summary().map(|x| x.p50), Some(2.0));
    assert!(Sampler::new(1).summary().is_none());
}

#[test]
fn arrival_schedule_is_a_pure_function_of_the_seed() {
    let a = loadgen::rung(7, 30.0, 5.0, 2, 32);
    assert_eq!(a, loadgen::rung(7, 30.0, 5.0, 2, 32));
    assert_ne!(a, loadgen::rung(8, 30.0, 5.0, 2, 32));
    assert_ne!(a.arrivals, loadgen::rung(7, 33.6, 5.0, 2, 32).arrivals);
    assert!(a.arrivals.windows(2).all(|w| w[0].at < w[1].at));
    assert!(a.arrivals.iter().all(|x| x.at >= 0.0 && x.at < 5.0 && x.conn < 2 && x.image < 32));
    // Poisson count: mean 150, standard deviation ≈ 12
    let n = a.arrivals.len() as f64;
    assert!((90.0..210.0).contains(&n), "{n} arrivals");
    // both connections get traffic
    assert!((0..2).all(|c| a.arrivals.iter().any(|x| x.conn == c)));
    let ladder = loadgen::geometric(24.0, 1.12, 3);
    assert!(close(ladder[0], 24.0) && close(ladder[2], 24.0 * 1.12 * 1.12));
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name: "s", req: 0, start_ns, end_ns, parent }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),  // overlaps its sibling: covered once
        span(90, 120, Some(0)), // runs past its parent: clipped
        span(25, 30, Some(2)),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 25, 30, 5]);
}

#[test]
fn tracer_links_nested_spans_and_absorbs_other_threads() {
    let origin = Instant::now();
    let mut t = Tracer::new(true, origin);
    let outer = t.begin("outer", 1);
    let inner = t.begin("inner", 1);
    t.end(inner);
    let now = Instant::now();
    let rec = t.record("measured", 1, now, now, t.current());
    t.end(outer);
    assert_eq!(rec, Some(2));
    let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(0)]);

    let mut other = Tracer::new(true, origin);
    let a = other.begin("a", 2);
    let b = other.begin("b", 2);
    other.end(b);
    other.end(a);
    t.absorb(other);
    assert_eq!(t.spans()[4].parent, Some(3));
    assert_eq!(t.to_jsonl().lines().count(), 5);

    let mut off = Tracer::new(false, origin);
    let s = off.begin("x", 0);
    off.end(s);
    assert!(off.spans().is_empty());
}

/// Every `serve_model_*` name `docs/PROTOCOL.md` lists.
fn documented_model_metrics() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/PROTOCOL.md");
    let doc = std::fs::read_to_string(path).expect("docs/PROTOCOL.md is readable");
    let mut names: Vec<String> = doc
        .match_indices("serve_model_")
        .map(|(i, _)| {
            doc[i..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .collect()
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

#[test]
fn stats_parser_accepts_every_documented_model_line() {
    let names = documented_model_metrics();
    assert!(names.len() >= 20, "{names:?}");
    let text: String = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if n == "serve_model_precision" {
                format!("{n}{{model=\"m\"}} \"int8\"\n")
            } else {
                format!("{n}{{model=\"m\"}} {i}.5\n")
            }
        })
        .collect::<String>()
        + "serve_models 1\n";
    let parsed = stats_text::parse(&text).expect("parses");
    for (i, n) in names.iter().enumerate() {
        match n.as_str() {
            "serve_model_precision" => {
                assert!(parsed.iter().any(|s| s.name == *n && s.value == Value::Str("int8".into())))
            }
            _ => assert_eq!(stats_text::get(&parsed, n, Some("m")), Some(i as f64 + 0.5), "{n}"),
        }
    }
    assert_eq!(stats_text::get(&parsed, "serve_models", None), Some(1.0));
    assert!(stats_text::parse("serve_model_occupancy{model=\"m\" 1").is_err());
    assert!(stats_text::parse("no_value_here").is_err());
    assert!(stats_text::parse("serve_models one").is_err());
}

#[test]
fn stats_parser_reads_a_live_daemon() {
    use anatomy::daemon::{Daemon, DaemonConfig, ModelConfig};
    use anatomy::serve::ServeConfig;
    use anatomy::{ConvOpts, GraphBuilder};

    let model = GraphBuilder::new()
        .input("data", 3, 8, 8)
        .conv("c1", ConvOpts::k(8).rs(3).pad(1).bias().relu())
        .gap("g")
        .fc("logits", 4)
        .softmax("loss")
        .build()
        .expect("valid graph");
    let daemon = Daemon::bind(
        DaemonConfig::loopback(),
        vec![ModelConfig::new("tiny", &model, ServeConfig::new(1, 1, 2)).expect("valid config")],
    )
    .expect("daemon binds");
    let parsed = stats_text::parse(&daemon.shutdown()).expect("live stats text parses");
    for n in documented_model_metrics() {
        assert!(parsed.iter().any(|s| s.name == n && s.model.as_deref() == Some("tiny")), "{n}");
    }
    assert_eq!(stats_text::get(&parsed, "serve_model_minibatch", Some("tiny")), Some(2.0));
}
