//! Deterministic run manifests.
//!
//! Every experiment run writes a manifest next to its output: the seed,
//! the rate allocator, topology/scale parameters, the source revision
//! (`git describe`) and a SHA-256 fingerprint of each emitted figure
//! series. CI regenerates the figures and diffs the fingerprints against
//! the checked-in golden set — byte-level regression gating without
//! storing the series themselves.
//!
//! The manifest is deliberately *deterministic*: no wall-clock timestamp,
//! keys serialized in sorted order, so two runs of the same code + seed
//! produce byte-identical manifests.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;

use crate::event::{json_str, Event};
use crate::registry::Registry;

/// A run manifest: identity, parameters and per-figure fingerprints.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunManifest {
    /// RNG seed the run used.
    pub seed: u64,
    /// Rate allocator label (`dense` / `incremental`).
    pub allocator: String,
    /// Experiment scale label (`quick` / `full`).
    pub scale: String,
    /// Source revision, from [`git_describe`].
    pub git: String,
    /// Topology and harness parameters (sorted map, free-form strings).
    pub params: BTreeMap<String, String>,
    /// Figure id → SHA-256 (lowercase hex) of its canonical series bytes.
    pub figures: BTreeMap<String, String>,
    /// Optional telemetry summary per figure (from [`Registry::summary_json`],
    /// stored as a raw JSON string).
    pub telemetry: BTreeMap<String, String>,
}

impl RunManifest {
    /// A manifest for a run with the given identity. `git` is captured via
    /// [`git_describe`].
    pub fn new(seed: u64, allocator: &str, scale: &str) -> Self {
        RunManifest {
            seed,
            allocator: allocator.to_string(),
            scale: scale.to_string(),
            git: git_describe(),
            ..Self::default()
        }
    }

    /// Record a harness/topology parameter.
    pub fn set_param(&mut self, key: &str, value: impl ToString) {
        self.params.insert(key.to_string(), value.to_string());
    }

    /// Record a figure's series fingerprint.
    pub fn record_figure(&mut self, id: &str, sha256_hex: &str) {
        self.figures.insert(id.to_string(), sha256_hex.to_string());
    }

    /// Attach a figure's telemetry summary (a raw JSON object string, e.g.
    /// from [`Registry::summary_json`]).
    pub fn record_telemetry(&mut self, id: &str, summary: &Registry) {
        self.telemetry
            .insert(id.to_string(), summary.summary_json());
    }

    /// Serialize as pretty-stable JSON (sorted keys, no timestamps).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"allocator\": {},\n",
            json_str(&self.allocator)
        ));
        s.push_str(&format!("  \"scale\": {},\n", json_str(&self.scale)));
        s.push_str(&format!("  \"git\": {},\n", json_str(&self.git)));
        s.push_str("  \"params\": ");
        s.push_str(&flat_map_json(&self.params, 2));
        s.push_str(",\n  \"figures\": ");
        s.push_str(&flat_map_json(&self.figures, 2));
        if self.telemetry.is_empty() {
            s.push_str("\n}\n");
        } else {
            s.push_str(",\n  \"telemetry\": {\n");
            for (i, (k, v)) in self.telemetry.iter().enumerate() {
                if i > 0 {
                    s.push_str(",\n");
                }
                // v is already a JSON object.
                s.push_str(&format!("    {}: {v}", json_str(k)));
            }
            s.push_str("\n  }\n}\n");
        }
        s
    }

    /// Write the manifest (and nothing else) to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// The events a recorder should see at run start, so a JSONL stream is
    /// self-describing: one `SimStart` with the run identity as label.
    pub fn start_event(&self, experiment: &str) -> Event {
        Event::SimStart {
            label: format!(
                "{experiment} seed={} allocator={} scale={}",
                self.seed, self.allocator, self.scale
            ),
        }
    }
}

/// Serialize a flat string map as a sorted JSON object, indented by
/// `indent` spaces per level.
pub fn flat_map_json(map: &BTreeMap<String, String>, indent: usize) -> String {
    if map.is_empty() {
        return "{}".to_string();
    }
    let pad = " ".repeat(indent);
    let mut s = String::from("{\n");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str(&format!("{pad}{pad}{}: {}", json_str(k), json_str(v)));
    }
    s.push_str(&format!("\n{pad}}}"));
    s
}

/// Parse a flat JSON object of string keys to string values — exactly the
/// shape [`flat_map_json`] emits and the golden figure-hash file uses.
/// Nested objects, arrays and non-string values are rejected with a
/// description of where parsing stopped.
pub fn parse_flat_map(src: &str) -> Result<BTreeMap<String, String>, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Ok(map);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let val = p.string()?;
        if map.insert(key.clone(), val).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            other => {
                return Err(format!(
                    "expected ',' or '}}', got {other:?} at byte {}",
                    p.pos
                ))
            }
        }
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected {:?}, got {other:?} at byte {}",
                want as char, self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble UTF-8: find the full char at pos-1.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|e| format!("bad UTF-8 in string: {e}"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repository) is unavailable. The subprocess runs once
/// per process, on the first call; later calls return the cached string,
/// so a server building a manifest per response spawns no subprocess per
/// request. Failures degrade to the fallback rather than erroring, so
/// manifests still work from tarballs and sandboxes.
pub fn git_describe() -> String {
    static DESCRIBED: OnceLock<String> = OnceLock::new();
    DESCRIBED
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest {
            seed: 42,
            allocator: "incremental".into(),
            scale: "quick".into(),
            git: "abc1234".into(),
            ..RunManifest::default()
        };
        m.set_param("segments", 4);
        m.set_param("fabric", "hpn");
        m.record_figure("fig13", "00aa");
        m.record_figure("fig19", "bb11");
        m
    }

    #[test]
    fn manifest_json_round_trips_through_flat_parser() {
        let m = sample();
        let json = m.to_json();
        // The figures sub-object must parse with the golden-file parser.
        let figs_start = json.find("\"figures\": ").expect("figures key") + 11;
        let figs = &json[figs_start..json.rfind('}').expect("closing")];
        let figs = &figs[..figs.rfind('}').expect("figures closing") + 1];
        let parsed = parse_flat_map(figs).expect("parse figures");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["fig13"], "00aa");
        assert_eq!(parsed["fig19"], "bb11");
    }

    #[test]
    fn manifest_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn start_event_labels_the_run() {
        let ev = sample().start_event("fig13");
        assert_eq!(
            ev,
            Event::SimStart {
                label: "fig13 seed=42 allocator=incremental scale=quick".into()
            }
        );
    }

    #[test]
    fn flat_parser_accepts_escapes_and_unicode() {
        let m = parse_flat_map(" { \"a\\n\" : \"b\\u0041\\\\\" , \"ü\" : \"v\" } ").expect("parse");
        assert_eq!(m["a\n"], "bA\\");
        assert_eq!(m["ü"], "v");
    }

    #[test]
    fn flat_parser_rejects_nesting_and_duplicates() {
        assert!(parse_flat_map("{\"a\":{}}").is_err());
        assert!(parse_flat_map("{\"a\":\"1\",\"a\":\"2\"}").is_err());
        assert!(parse_flat_map("{\"a\":\"1\"").is_err());
        assert!(parse_flat_map("").is_err());
        assert_eq!(parse_flat_map("{}").expect("empty object"), BTreeMap::new());
    }

    #[test]
    fn round_trip_map() {
        let mut map = BTreeMap::new();
        map.insert("fig13".to_string(), "deadbeef".to_string());
        map.insert("weird \"key\"".to_string(), "line\nbreak".to_string());
        let json = flat_map_json(&map, 2);
        assert_eq!(parse_flat_map(&json).expect("round trip"), map);
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }

    #[test]
    fn git_describe_is_stable_within_a_process() {
        assert_eq!(git_describe(), git_describe());
    }
}
