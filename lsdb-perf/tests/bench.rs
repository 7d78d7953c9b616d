//! Small-scale checks of the benchmark itself: a 2,000-segment county
//! and one-second runs, each test in its own output directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value (just enough JSON for the benchmark's output and
/// `BENCHMARK.json`).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in document order, so duplicates stay visible.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("missing key {key}"))
                    .1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(self.s[self.i], b, "expected {:?} at {}", b as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s[self.i] {
                        b'"' => {
                            self.i += 1;
                            return Json::Str(out);
                        }
                        b'\\' => {
                            out.push(self.s[self.i + 1] as char);
                            self.i += 2;
                        }
                        c => {
                            out.push(c as char);
                            self.i += 1;
                        }
                    }
                }
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// One finished benchmark run.
struct Run {
    code: Option<i32>,
    stdout: String,
    result: Json,
    facts: Json,
}

/// A fresh output directory for one test.
fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench(workload: &str, seed: u64, trace: bool, out: &Path, extra: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_lsdb-perf"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--segments", "2000", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "too little output: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = Json::parse(lines[lines.len() - 1]);
    let facts = Json::parse(lines[lines.len() - 2]).get("facts").clone();
    Run {
        code: output.status.code(),
        stdout,
        result,
        facts,
    }
}

/// `(name, unit)` of each metric BENCHMARK.json lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text)
        .get(key)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

const WORKLOADS: [&str; 3] = ["point_wire", "polygon_wire", "hot_readwrite"];

#[test]
fn each_named_metric_is_printed_once_with_its_unit() {
    let out = out_dir("metrics");
    let workloads: Vec<String> = declared_workloads();
    assert_eq!(workloads, WORKLOADS);
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(key);
        for w in WORKLOADS {
            let run = bench(w, 3, trace, &out, &[]);
            assert_eq!(run.code, Some(0), "{w}: {}", run.stdout);
            assert_eq!(run.result.get("correct"), &Json::Bool(true));
            let got: Vec<(String, String)> = run
                .result
                .get("metrics")
                .entries()
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            assert_eq!(got, want, "{w} trace={trace}");
            for (name, unit) in &want {
                let printed = run
                    .stdout
                    .lines()
                    .filter(|l| l.starts_with(&format!("{name} = ")))
                    .collect::<Vec<_>>();
                assert_eq!(printed.len(), 1, "{w}: {name} printed {printed:?}");
                assert!(printed[0].ends_with(&format!(" {unit}")), "{printed:?}");
            }
            for (name, _) in &want {
                let v = run.result.get("metrics").get(name).get("value").num();
                assert!(v.is_finite(), "{w}: {name} = {v}");
            }
        }
    }
}

fn declared_workloads() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text)
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

#[test]
fn the_gate_flags_a_wrong_expected_answer() {
    let out = out_dir("gate");
    let clean = bench("point_wire", 4, false, &out, &[]);
    assert_eq!(clean.code, Some(0));
    assert_eq!(clean.result.get("failed").num(), 0.0);
    // The reference answer of request 5 is corrupted inside the checker;
    // the program under test is untouched.
    let run = bench("point_wire", 4, false, &out, &["--inject-mismatch", "5"]);
    assert_ne!(run.code, Some(0));
    assert_eq!(run.result.get("correct"), &Json::Bool(false));
    assert_eq!(run.result.get("failed").num(), 1.0);
    assert_eq!(
        run.result.get("attempted").num(),
        run.facts.get("attempted").num()
    );
}

#[test]
fn the_paper_counter_fingerprint_repeats_for_a_seed() {
    let out = out_dir("fingerprint");
    let first = bench("hot_readwrite", 5, false, &out, &[]);
    let second = bench("hot_readwrite", 5, true, &out, &[]);
    assert_eq!(first.facts.get("fingerprint_check").str(), "recorded");
    assert_eq!(second.facts.get("fingerprint_check").str(), "match");
    assert_eq!(
        first.facts.get("fingerprint"),
        second.facts.get("fingerprint")
    );
    let other = bench("hot_readwrite", 6, false, &out, &[]);
    assert_ne!(
        first.facts.get("fingerprint"),
        other.facts.get("fingerprint")
    );
}

#[test]
fn hot_readwrite_ends_at_its_starting_size_after_checkpoints() {
    let out = out_dir("hot");
    let run = bench("hot_readwrite", 7, false, &out, &[]);
    assert_eq!(run.code, Some(0), "{}", run.stdout);
    assert_eq!(run.facts.get("map_len_start"), run.facts.get("map_len_end"));
    assert!(run.facts.get("checkpoints").num() >= 2.0);
    assert!(run.facts.get("write_samples").num() > 0.0);
}

#[test]
fn child_spans_never_sum_past_the_round_trip() {
    let out = out_dir("spans");
    let run = bench("point_wire", 8, true, &out, &[]);
    assert_eq!(run.code, Some(0));
    let text = std::fs::read_to_string(out.join("spans-point_wire.tsv")).expect("span file");
    // request -> (round trip, summed children, is a read)
    let mut requests: BTreeMap<u64, (u64, u64, bool)> = BTreeMap::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        let (req, span, parent, name) = (f[0].parse().unwrap(), f[1], f[2], f[3]);
        let dur = f[5].parse::<u64>().unwrap() - f[4].parse::<u64>().unwrap();
        let entry = requests.entry(req).or_default();
        if span == "2" {
            entry.0 = dur;
        }
        if parent == "2" {
            entry.1 += dur;
        }
        if name == "engine.exec" {
            entry.2 = true;
        }
    }
    let reads: Vec<_> = requests.values().filter(|r| r.2).collect();
    assert!(reads.len() > 100, "too few traced reads: {}", reads.len());
    for (rt, children, _) in reads {
        assert!(
            children <= rt,
            "children {children} ns > round trip {rt} ns"
        );
    }
}
