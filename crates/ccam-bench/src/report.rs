//! Shared plumbing of the gated bench binaries (`build_scale`,
//! `chaos_serve`, `perf_hotpaths`, `reorg_stall`, `repl_chaos`,
//! `serve_load`):
//!
//! * [`Args`] — `--flag value` and boolean flags; unknown flags, missing
//!   values and unparsable values exit 2 with a message;
//! * [`Obj`] — an ordered JSON report builder (numbers keep the precision
//!   each call site asks for), written by [`write_report`] only after
//!   [`parse`] accepts it; [`parse`] also reads baselines back;
//! * [`Gates`] — the named pass/fail conditions a bench enforces. They
//!   land in the report as a `gates` object and make the process exit 1
//!   when any of them fails.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

fn bin_name() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let name = std::path::Path::new(&argv0).file_name();
    name.map_or("bench".into(), |n| n.to_string_lossy().into_owned())
}

/// Prints `<bin>: <msg>` and exits 2 (bad usage or an unusable set-up).
pub fn die(msg: &str) -> ! {
    eprintln!("{}: {msg}", bin_name());
    std::process::exit(2);
}

/// `unwrap_or_else(die)` with a context prefix.
pub trait OrDie<T> {
    fn or_die(self, what: &str) -> T;
}

impl<T, E: Display> OrDie<T> for Result<T, E> {
    fn or_die(self, what: &str) -> T {
        self.unwrap_or_else(|e| die(&format!("{what}: {e}")))
    }
}

/// The `p`-quantile (0.0..=1.0) of an ascending slice, nearest rank;
/// 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Command-line flags, taken one by one: every token starting with `--`
/// is a flag, a valued flag's value is the next token, and
/// [`Args::finish`] rejects whatever no getter took.
pub struct Args {
    argv: Vec<String>,
    taken: Vec<bool>,
}

impl Args {
    pub fn from_env() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let taken = vec![false; argv.len()];
        Args { argv, taken }
    }

    /// The value of `flag` if given (the last one when repeated), or why
    /// it is missing or does not parse.
    fn try_opt<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let mut value = None;
        for i in 0..self.argv.len() {
            if self.argv[i] != flag || self.taken[i] {
                continue;
            }
            let v = self.argv.get(i + 1).filter(|v| !v.starts_with("--"));
            let v = v.ok_or(format!("{flag} needs a value"))?;
            self.taken[i..=i + 1].fill(true);
            value = Some(
                v.parse()
                    .map_err(|_| format!("{flag}: cannot parse {v:?}"))?,
            );
        }
        Ok(value)
    }

    /// The value of `flag` if given; exits 2 when it is missing or bad.
    pub fn opt<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        self.try_opt(flag).unwrap_or_else(|e| die(&e))
    }

    /// The value of `flag`, or `default`; exits 2 when it is missing or
    /// bad.
    pub fn get<T: FromStr>(&mut self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    /// Whether the boolean flag `flag` was given.
    pub fn has(&mut self, flag: &str) -> bool {
        let mut hit = false;
        for (arg, taken) in self.argv.iter().zip(&mut self.taken) {
            if arg == flag {
                (hit, *taken) = (true, true);
            }
        }
        hit
    }

    /// The first token no getter took, as an error.
    fn try_finish(&self) -> Result<(), String> {
        match self
            .argv
            .iter()
            .zip(&self.taken)
            .find(|(_, taken)| !**taken)
        {
            Some((arg, _)) => Err(format!("unknown flag {arg}")),
            None => Ok(()),
        }
    }

    /// Exits 2 when a token was not taken by any getter.
    pub fn finish(self) {
        self.try_finish().unwrap_or_else(|e| die(&e));
    }
}

/// Rendered JSON text of one value.
pub struct Json(String);

/// A JSON object with its keys in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends `key: value`.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Obj {
        self.0.push((key.to_string(), value.into()));
        self
    }
}

/// `v` with exactly `decimals` fractional digits (`null` when not finite).
pub fn fixed(v: f64, decimals: usize) -> Json {
    Json(if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".into()
    })
}

macro_rules! json_from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json(v.to_string())
            }
        }
    )*};
}

json_from_display!(bool, u32, u64, usize);

/// Shortest round-trip text (`2.0` writes `2`); `null` when not finite.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json(if v.is_finite() {
            v.to_string()
        } else {
            "null".into()
        })
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => write!(out, "\\{c}"),
                c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c)),
                c => write!(out, "{c}"),
            }
            .expect("writing to a String cannot fail");
        }
        Json(out + "\"")
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::from(s.as_str())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json("null".into()), Into::into)
    }
}

/// Members one per line, nested values indented two spaces per level.
fn block(open: char, members: Vec<String>, close: char) -> Json {
    if members.is_empty() {
        return Json(format!("{open}{close}"));
    }
    let body = members.join(",\n").replace('\n', "\n  ");
    Json(format!("{open}\n  {body}\n{close}"))
}

impl From<Obj> for Json {
    fn from(o: Obj) -> Json {
        let members =
            o.0.into_iter()
                .map(|(k, v)| format!("{}: {}", Json::from(k).0, v.0));
        block('{', members.collect(), '}')
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        block('[', items.into_iter().map(|v| v.into().0).collect(), ']')
    }
}

/// Every number stored under an object key in a JSON document, in
/// document order (keys as written, escapes undecoded).
#[derive(Debug)]
pub struct Numbers(Vec<(String, f64)>);

impl Numbers {
    /// The first number stored under `key` anywhere in the document.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Checks that `s` is one well-formed JSON document (the workspace
/// carries no serde) and collects its numbers. Errors start with
/// "invalid JSON" and name the byte offset.
pub fn parse(s: &str) -> Result<Numbers, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
        numbers: Vec::new(),
    };
    p.value(None)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(Numbers(p.numbers))
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    numbers: Vec<(String, f64)>,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("invalid JSON: {what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Skips whitespace, then consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.b.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self, key: Option<String>) -> Result<(), String> {
        self.ws();
        let b = self.b;
        let rest = &b[self.i..];
        if let Some(word) = ["true", "false", "null"]
            .iter()
            .find(|w| rest.starts_with(w.as_bytes()))
        {
            self.i += word.len();
            return Ok(());
        }
        let close = match rest.first() {
            Some(b'"') => return self.string().map(drop),
            Some(b'{') => b'}',
            Some(b'[') => b']',
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let len = rest
                    .iter()
                    .take_while(|c| b"0123456789.eE+-".contains(c))
                    .count();
                let n = std::str::from_utf8(&rest[..len])
                    .ok()
                    .and_then(|t| t.parse().ok());
                let n = n.ok_or_else(|| self.err("bad number"))?;
                self.numbers.extend(key.map(|k| (k, n)));
                self.i += len;
                return Ok(());
            }
            _ => return Err(self.err("unexpected token")),
        };
        self.i += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            let mut key = None;
            if close == b'}' {
                self.ws();
                key = Some(self.string()?);
                if !self.eat(b':') {
                    return Err(self.err("expected ':'"));
                }
            }
            self.value(key)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or close"));
            }
        }
    }

    /// A string's raw contents (escapes skipped, not decoded).
    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        let start = self.i + 1;
        self.i = start;
        while let Some(&c) = self.b.get(self.i) {
            self.i += if c == b'\\' { 2 } else { 1 };
            if c == b'"' {
                return Ok(String::from_utf8_lossy(&self.b[start..self.i - 1]).into_owned());
            }
        }
        Err(self.err("unterminated string"))
    }
}

/// Renders `report`, checks that the text parses back, and writes it to
/// `path`; exits 2 when the file cannot be written.
pub fn write_report(path: &str, report: Obj) {
    let text = Json::from(report).0 + "\n";
    if let Err(e) = parse(&text) {
        panic!("report for {path} is not well-formed: {e}");
    }
    std::fs::write(path, &text).or_die(&format!("--out {path}"));
}

/// The numbers of a JSON file (a committed baseline); exits 2 when it is
/// missing or malformed.
pub fn read_numbers(path: &str) -> Numbers {
    parse(&std::fs::read_to_string(path).or_die(path)).or_die(path)
}

/// The pass/fail conditions one bench run enforces, in check order:
/// (name, ok, what failed).
#[derive(Default)]
pub struct Gates(Vec<(String, bool, String)>);

impl Gates {
    /// Records gate `name`; `msg` says what failed and is printed only
    /// when `ok` is false. Names are the report's `gates` keys, so each
    /// may be recorded once.
    pub fn check(&mut self, name: &str, ok: bool, msg: impl Into<String>) {
        let fresh = name != "pass" && self.0.iter().all(|g| g.0 != name);
        assert!(fresh, "gate {name} recorded twice");
        self.0.push((name.to_string(), ok, msg.into()));
    }

    /// Gate `name`: `value <= bound`.
    pub fn at_most<T: PartialOrd + Display>(&mut self, name: &str, value: T, bound: T) {
        self.check(name, value <= bound, format!("{value} (want <= {bound})"));
    }

    /// Gate `name`: `value >= bound`.
    pub fn at_least<T: PartialOrd + Display>(&mut self, name: &str, value: T, bound: T) {
        self.check(name, value >= bound, format!("{value} (want >= {bound})"));
    }

    /// True when every recorded gate holds.
    pub fn pass(&self) -> bool {
        self.0.iter().all(|g| g.1)
    }

    /// Number of failed gates.
    pub fn failures(&self) -> usize {
        self.0.iter().filter(|g| !g.1).count()
    }

    /// `{"<gate>": ok, ..., "pass": <all ok>}`.
    pub fn to_json(&self) -> Obj {
        let gates = self.0.iter().fold(Obj::new(), |o, g| o.set(&g.0, g.1));
        gates.set("pass", self.pass())
    }

    /// Prints every failed gate to stderr, then exits 1 if there was one.
    pub fn exit_on_failure(&self) {
        for (name, _, msg) in self.0.iter().filter(|g| !g.1) {
            eprintln!("{}: FAIL {name} — {msg}", bin_name());
        }
        if !self.pass() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let taken = vec![false; argv.len()];
        Args { argv, taken }
    }

    #[test]
    fn flags_take_values_switches_and_defaults() {
        let mut a = args(&[
            "--seconds",
            "7",
            "--quick",
            "--out",
            "r.json",
            "--seconds",
            "8",
        ]);
        assert_eq!(a.get("--seconds", 5u64), 8, "last value wins");
        assert_eq!(a.get("--out", String::new()), "r.json");
        assert!(a.has("--quick"));
        assert_eq!(a.try_finish(), Ok(()));
        let mut a = args(&[]);
        assert_eq!((a.get("--seconds", 5u64), a.has("--quick")), (5, false));
        assert_eq!(a.opt::<String>("--out"), None);
    }

    #[test]
    fn flags_reject_unknown_flags_missing_and_bad_values() {
        let mut a = args(&["--sekonds", "7"]);
        assert_eq!(a.get("--seconds", 5u64), 5);
        assert_eq!(a.try_finish(), Err("unknown flag --sekonds".into()));
        let missing = Err("--seconds needs a value".into());
        assert_eq!(
            args(&["--quick", "--seconds"]).try_opt::<u64>("--seconds"),
            missing
        );
        assert_eq!(
            args(&["--seconds", "--quick"]).try_opt::<u64>("--seconds"),
            missing
        );
        let bad = Err("--seconds: cannot parse \"x\"".into());
        assert_eq!(args(&["--seconds", "x"]).try_opt::<u64>("--seconds"), bad);
    }

    #[test]
    fn reports_parse_back_with_their_precision() {
        let runs = vec![Obj::new().set("threads", 1usize), Obj::new()];
        let report = Obj::new()
            .set("bench", "x\"y\n")
            .set("qps", fixed(1234.56, 1))
            .set("crr", fixed(0.741_85, 4))
            .set("ratio", 2.0)
            .set("nan", fixed(f64::NAN, 2))
            .set("runs", runs);
        let text = Json::from(report).0;
        let want = "{\n  \"bench\": \"x\\\"y\\u000a\",\n  \"qps\": 1234.6,\n  \"crr\": 0.7419,\n  \
                    \"ratio\": 2,\n  \"nan\": null,\n  \"runs\": [\n    {\n      \"threads\": 1\n    },\n    {}\n  ]\n}";
        assert_eq!(text, want);
        let numbers = parse(&text).unwrap();
        assert_eq!(
            (numbers.get("crr"), numbers.get("nan")),
            (Some(0.7419), None)
        );
    }

    /// Baselines are read by the first occurrence of a key, as the flat
    /// `clustering` block precedes `clustering_multilevel`.
    #[test]
    fn numbers_are_found_in_document_order() {
        let doc = r#"{"config": {"available_threads": 2, "quick": true},
            "clustering": {"runs": [{"nodes_per_sec": 5}], "best_nodes_per_sec": 29279},
            "clustering_multilevel": {"best_nodes_per_sec": 190303}}"#;
        let numbers = parse(doc).unwrap();
        assert_eq!(numbers.get("best_nodes_per_sec"), Some(29279.0));
        assert_eq!(numbers.get("nodes_per_sec"), Some(5.0));
        assert_eq!(numbers.get("quick"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "{\"a\": 1,}",
            "{\"a\": 1} }",
            "[1 2]",
            "{\"a\": 1.2.3}",
            "{\"a\": tru}",
            "\"open",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.starts_with("invalid JSON"), "{bad}: {e}");
        }
        for good in [
            "{\"a\": [1, -2.5e3, true, false, null], \"b\": {\"c\": \"d\\\"e\"}}",
            " [ ] ",
            "{}",
        ] {
            parse(good).unwrap();
        }
    }

    #[test]
    fn gates_report_every_gate_and_the_verdict() {
        let mut g = Gates::default();
        g.check("drain", true, "never printed");
        g.at_least("parity_checks", 4, 4);
        assert!(g.pass());
        g.at_most("worker_panics", 3, 0);
        assert_eq!(
            (g.pass(), g.failures(), g.0[2].2.as_str()),
            (false, 1, "3 (want <= 0)")
        );
        let text = Json::from(g.to_json()).0;
        let want = "\"drain\": true,\n  \"parity_checks\": true,\n  \"worker_panics\": false,\n  \"pass\": false";
        assert!(text.contains(want), "{text}");
    }
}
