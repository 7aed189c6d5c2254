//! Tests of the benchmark's own helpers: the percentile rule, span self
//! time, `VmHWM` parsing, and the names the command prints against
//! `BENCHMARK.json`.

use p2pfl_perfbench::drift;
use p2pfl_perfbench::report::{json_line, per_layer, Report, END_TO_END, WORKLOADS};
use p2pfl_perfbench::stats::{parse_vm_hwm_kb, percentile, samples_beyond, sorted, supported_tail};
use p2pfl_perfbench::trace::{layer_self_per_round, self_times, Span, Tracer};

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(supported_tail(1000), Some(99.0));
    assert_eq!(supported_tail(999), Some(95.0));
    assert_eq!(supported_tail(100), Some(90.0));
    assert_eq!(supported_tail(40), Some(75.0));
    assert_eq!(supported_tail(20), Some(50.0));
    assert_eq!(supported_tail(19), None);
    assert_eq!(supported_tail(0), None);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert_eq!(percentile(&xs, 50.0), 3.0);
    assert_eq!(percentile(&xs, 90.0), 5.0);
    assert_eq!(percentile(&xs, 0.0), 1.0);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 90.0), 90.0);
    assert_eq!(percentile(&hundred, 99.0), 99.0);
}

#[test]
fn drift_compares_last_quarter_to_first() {
    assert_eq!(drift(&[1.0, 1.0, 3.0, 3.0, 2.0, 2.0, 2.0, 2.0]), Some(2.0));
    assert_eq!(drift(&[1.0, 2.0, 3.0]), None);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        round: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("bench.round", 0, 100, None),
        span("net.with", 10, 40, Some(0)),
        span("fed.fedavg", 30, 60, Some(0)),
        span("secagg.x", 15, 20, Some(1)),
        // Runs past its parent: only the covered part counts.
        span("ml.y", 90, 130, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
    let per_layer = layer_self_per_round(&spans, "bench.round");
    assert_eq!(per_layer["bench"], vec![40e-9]);
    assert_eq!(per_layer["net"], vec![25e-9]);
    assert_eq!(per_layer["secagg"], vec![5e-9]);
}

#[test]
fn layer_self_times_add_up_to_each_round() {
    let spans = vec![
        span("core.round", 0, 1_000, None),
        span("fed.local", 100, 700, Some(0)),
        span("ml.eval", 800, 900, Some(0)),
        span("core.round", 2_000, 2_500, None),
        span("fed.local", 2_100, 2_200, Some(3)),
    ];
    let per_layer = layer_self_per_round(&spans, "core.round");
    for (round, total_ns) in [(0, 1_000.0), (1, 500.0)] {
        let sum: f64 = per_layer.values().map(|v| v[round]).sum();
        assert!(
            (sum - total_ns * 1e-9).abs() < 1e-15,
            "round {round}: {sum}"
        );
    }
    assert_eq!(per_layer["ml"], vec![100e-9, 0.0]);
}

#[test]
fn tracer_nests_spans_and_records_nothing_when_off() {
    let mut on = Tracer::new(true);
    on.span("core.round", 7, |t| {
        t.span("fed.a", 7, |_| ());
        t.span("fed.b", 7, |t| t.span("ml.c", 7, |_| ()));
    });
    let parents: Vec<Option<usize>> = on.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
    assert!(on
        .spans()
        .iter()
        .all(|s| s.round == 7 && s.end_ns >= s.start_ns));

    let mut off = Tracer::new(false);
    assert_eq!(
        off.span("core.round", 1, |t| t.span("fed.a", 1, |_| 42)),
        42
    );
    assert!(off.spans().is_empty());
}

#[test]
fn vm_hwm_parses_from_proc_status() {
    let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  431512 kB\nVmRSS:\t  1 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(431_512));
    assert_eq!(parse_vm_hwm_kb("VmRSS:\t 12 kB\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
}

/// A JSON value, parsed by the small reader below.
#[derive(Debug, Clone, PartialEq)]
enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    fn get(&self, key: &str) -> &J {
        match self {
            J::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            J::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }
    fn arr(&self) -> &[J] {
        match self {
            J::Arr(v) => v,
            _ => panic!("not an array"),
        }
    }
    fn str(&self) -> &str {
        match self {
            J::Str(s) => s,
            _ => panic!("not a string"),
        }
    }
}

fn parse_json(text: &str) -> J {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> J {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut kv = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return J::Obj(kv);
                    }
                    let J::Str(k) = value(b, i) else {
                        panic!("object key")
                    };
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    kv.push((k, value(b, i)));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut v = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return J::Arr(v);
                    }
                    v.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                let start = *i + 1;
                *i = start;
                while b[*i] != b'"' {
                    assert_ne!(b[*i], b'\\', "escapes are not used in these files");
                    *i += 1;
                }
                *i += 1;
                J::Str(String::from_utf8(b[start..*i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", J::Bool(true)),
                    ("false", J::Bool(false)),
                    ("null", J::Null),
                ] {
                    if b[*i..].starts_with(word.as_bytes()) {
                        *i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {i}");
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                J::Num(
                    std::str::from_utf8(&b[start..*i])
                        .expect("ascii")
                        .parse()
                        .expect("number"),
                )
            }
        }
    }
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing text");
    v
}

fn benchmark_json() -> J {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn names_units(list: &J) -> Vec<(String, String)> {
    list.arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

/// The metric lines of a run, with every value set to 1.
fn printed(traced: bool) -> J {
    let mut r = Report::default();
    for (name, _) in END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .chain(per_layer())
    {
        r.set(name, 1.0, 1);
    }
    let metrics = r.finish(traced);
    parse_json(&json_line(r.correct(), 1, r.failed, &metrics))
}

#[test]
fn printed_names_match_benchmark_json() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = names_units(spec.get(list));
        let out = printed(traced);
        assert_eq!(
            out.keys(),
            vec!["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(out.get("correct"), &J::Bool(true));
        let got: Vec<(String, String)> = match out.get("metrics") {
            J::Obj(kv) => kv
                .iter()
                .map(|(k, v)| {
                    assert_eq!(v.keys(), vec!["value", "unit"]);
                    (k.clone(), v.get("unit").str().to_owned())
                })
                .collect(),
            _ => panic!("metrics is not an object"),
        };
        assert_eq!(got, want, "{list}");
    }
}

#[test]
fn an_unmeasured_end_to_end_metric_fails_the_run() {
    let mut r = Report::default();
    r.set("round_s.p50", 1.0, 1);
    r.finish(false);
    assert!(!r.correct());
    assert!(r.failures.iter().any(|f| f.contains("setup_s")));
}
