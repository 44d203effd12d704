//! Graph serialization: whitespace-separated edge lists (the format SNAP
//! datasets ship in) and a compact binary format for caching generated
//! datasets between benchmark runs.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::{Graph, GraphBuilder};
use crate::error::GraphError;

/// Magic header for the binary graph format (`"PVIM"` + version byte).
const MAGIC: &[u8; 5] = b"PVIM1";

/// Parses a whitespace-separated edge list: each non-empty, non-`#` line is
/// `src dst [weight]`; missing weights default to `default_weight`.
///
/// `num_nodes` fixes the node-id space; ids must lie in `0..num_nodes`.
///
/// Ingestion is strict: self-loops, repeated directed edges, trailing
/// tokens, out-of-range ids, and non-finite or out-of-`[0, 1]` weights are
/// all rejected with a typed error carrying the 1-based line number, so a
/// corrupted dataset fails loudly at load time instead of skewing the
/// propagation model.
pub fn read_edge_list<R: Read>(
    reader: R,
    num_nodes: usize,
    default_weight: f64,
) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new(num_nodes);
    let mut seen = std::collections::HashSet::new();
    let mut line = String::new();
    let mut reader = BufReader::new(reader);
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let src: u64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing source"))?
            .parse()
            .map_err(|e| parse_err(lineno, &format!("bad source: {e}")))?;
        let dst: u64 = it
            .next()
            .ok_or_else(|| parse_err(lineno, "missing destination"))?
            .parse()
            .map_err(|e| parse_err(lineno, &format!("bad destination: {e}")))?;
        let weight = match it.next() {
            Some(tok) => tok
                .parse::<f64>()
                .map_err(|e| parse_err(lineno, &format!("bad weight: {e}")))?,
            None => default_weight,
        };
        if let Some(extra) = it.next() {
            return Err(parse_err(
                lineno,
                &format!("unexpected trailing token {extra:?}"),
            ));
        }
        if src == dst {
            return Err(GraphError::SelfLoop {
                node: src,
                line: lineno,
            });
        }
        if !seen.insert((src, dst)) {
            return Err(GraphError::DuplicateEdge {
                src,
                dst,
                line: lineno,
            });
        }
        b.try_add_edge(src, dst, weight)
            .map_err(|e| GraphError::AtLine {
                line: lineno,
                source: Box::new(e),
            })?;
    }
    Ok(b.build())
}

/// Parses an edge list without a declared node count: reads the text once
/// to find the maximum node id (honoring an optional `# nodes N ...`
/// header, which wins when larger), then parses as [`read_edge_list`].
pub fn read_edge_list_auto(text: &str, default_weight: f64) -> Result<Graph, GraphError> {
    let mut max_id: Option<u64> = None;
    let mut declared: Option<u64> = None;
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            // Header form: "# nodes N edges M".
            let mut it = rest.split_whitespace();
            if it.next() == Some("nodes") {
                if let Some(Ok(n)) = it.next().map(str::parse::<u64>) {
                    declared = Some(n);
                }
            }
            continue;
        }
        for tok in trimmed.split_whitespace().take(2) {
            let id: u64 = tok.parse().map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad node id {tok}: {e}"),
            })?;
            max_id = Some(max_id.map_or(id, |m: u64| m.max(id)));
        }
    }
    let from_edges = max_id.map_or(0, |m| m + 1);
    let n = declared.unwrap_or(0).max(from_edges) as usize;
    read_edge_list(text.as_bytes(), n, default_weight)
}

fn parse_err(line: usize, message: &str) -> GraphError {
    GraphError::Parse {
        line,
        message: message.to_string(),
    }
}

/// Writes `g` as a `src dst weight` edge list.
///
/// [`read_edge_list`] rejects self-loops and repeated directed edges, so
/// a graph holding one is refused here, before anything is written, with
/// the error (and line number) the reader would raise on the output.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut seen = std::collections::HashSet::new();
    for (i, (src, dst, _)) in g.edges().enumerate() {
        let (src, dst, line) = (src as u64, dst as u64, i + 2);
        if src == dst {
            return Err(GraphError::SelfLoop { node: src, line });
        }
        if !seen.insert((src, dst)) {
            return Err(GraphError::DuplicateEdge { src, dst, line });
        }
    }
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (src, dst, weight) in g.edges() {
        writeln!(w, "{src} {dst} {weight}")?;
    }
    w.flush()?;
    Ok(())
}

/// Encodes `g` into the compact binary format.
///
/// Layout: magic, `u64` node count, `u64` edge count, then per edge
/// `u32 src, u32 dst, f64 weight` in source order (little endian).
pub fn encode_binary(g: &Graph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MAGIC.len() + 16 + g.num_edges() * 16);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(g.num_nodes() as u64).to_le_bytes());
    buf.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    for (src, dst, weight) in g.edges() {
        buf.extend_from_slice(&src.to_le_bytes());
        buf.extend_from_slice(&dst.to_le_bytes());
        buf.extend_from_slice(&weight.to_le_bytes());
    }
    buf
}

/// Decodes a graph from the binary format produced by [`encode_binary`].
pub fn decode_binary(buf: &[u8]) -> Result<Graph, GraphError> {
    let Some(body) = buf.strip_prefix(MAGIC) else {
        return Err(GraphError::Corrupt("bad magic"));
    };
    let Some((header, payload)) = body.split_first_chunk::<16>() else {
        return Err(GraphError::Corrupt("truncated header"));
    };
    let num_nodes = u64::from_le_bytes(header[..8].try_into().expect("an 8-byte field")) as usize;
    let num_edges = u64::from_le_bytes(header[8..].try_into().expect("an 8-byte field")) as usize;
    if payload.len() != num_edges.saturating_mul(16) {
        return Err(GraphError::Corrupt("edge payload size mismatch"));
    }
    let mut b = GraphBuilder::with_capacity(num_nodes, num_edges);
    for edge in payload.chunks_exact(16) {
        let src = u32::from_le_bytes(edge[..4].try_into().expect("a 4-byte field")) as u64;
        let dst = u32::from_le_bytes(edge[4..8].try_into().expect("a 4-byte field")) as u64;
        let weight = f64::from_le_bytes(edge[8..].try_into().expect("an 8-byte field"));
        b.try_add_edge(src, dst, weight)?;
    }
    Ok(b.build())
}

/// Convenience: writes the binary format to `path`.
pub fn save_binary<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphError> {
    std::fs::write(path, encode_binary(g))?;
    Ok(())
}

/// Convenience: reads the binary format from `path`.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let bytes = std::fs::read(path)?;
    decode_binary(&bytes)
}

/// Reads a graph file, choosing the format by name: `.bin` is the
/// binary format, anything else a whitespace edge list read by
/// [`read_edge_list_auto`] with missing weights 1.0.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let path = path.as_ref();
    if path.extension().is_some_and(|ext| ext == "bin") {
        return load_binary(path);
    }
    read_edge_list_auto(&std::fs::read_to_string(path)?, 1.0)
}

/// Writes a graph file in the format [`load_graph`] reads back from the
/// same name.
pub fn save_graph<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphError> {
    let path = path.as_ref();
    if path.extension().is_some_and(|ext| ext == "bin") {
        return save_binary(g, path);
    }
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.25);
        b.add_edge(1, 2, 0.5);
        b.add_edge(3, 0, 1.0);
        b.build()
    }

    #[test]
    fn edge_list_round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], 4, 1.0).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn graph_files_pick_their_format_by_name() {
        let g = sample();
        let dir = std::env::temp_dir().join(format!("privim-graph-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["g.bin", "g.txt"] {
            let path = dir.join(name);
            save_graph(&g, &path).unwrap();
            assert_eq!(load_graph(&path).unwrap(), g, "{name}");
        }
        let bytes = std::fs::read(dir.join("g.bin")).unwrap();
        assert!(bytes.starts_with(MAGIC));
        let text = std::fs::read_to_string(dir.join("g.txt")).unwrap();
        assert_eq!(read_edge_list_auto(&text, 1.0).unwrap(), g);
        assert!(matches!(
            load_graph(dir.join("missing.bin")),
            Err(GraphError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn edge_list_default_weight_and_comments() {
        let text = "# a comment\n\n0 1\n1 0 0.5\n";
        let g = read_edge_list(text.as_bytes(), 2, 0.9).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_weights(0), &[0.9]);
        assert_eq!(g.out_weights(1), &[0.5]);
    }

    #[test]
    fn edge_list_reports_line_numbers() {
        let text = "0 1\nnot numbers\n";
        let err = read_edge_list(text.as_bytes(), 2, 1.0).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn edge_list_rejects_out_of_range_nodes() {
        let text = "0 1\n0 7\n";
        match read_edge_list(text.as_bytes(), 2, 1.0) {
            Err(GraphError::AtLine { line, source }) => {
                assert_eq!(line, 2);
                assert!(matches!(
                    *source,
                    GraphError::NodeOutOfRange { node: 7, .. }
                ));
            }
            other => panic!("expected line-annotated range error, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_rejects_self_loops_and_duplicates() {
        assert!(matches!(
            read_edge_list("0 1\n1 1\n".as_bytes(), 3, 1.0),
            Err(GraphError::SelfLoop { node: 1, line: 2 })
        ));
        assert!(matches!(
            read_edge_list("0 1 0.5\n1 2\n0 1 0.7\n".as_bytes(), 3, 1.0),
            Err(GraphError::DuplicateEdge {
                src: 0,
                dst: 1,
                line: 3
            })
        ));
        // Reverse direction is a distinct directed edge, not a duplicate.
        assert!(read_edge_list("0 1\n1 0\n".as_bytes(), 2, 1.0).is_ok());
    }

    #[test]
    fn edge_list_rejects_bad_weights_with_line_numbers() {
        for (text, line) in [
            ("0 1 NaN\n", 1),
            ("0 1 0.5\n1 2 -0.25\n", 2),
            ("0 1 0.5\n1 2 0.5\n2 0 1.5\n", 3),
            ("0 1 inf\n", 1),
        ] {
            match read_edge_list(text.as_bytes(), 3, 1.0) {
                Err(GraphError::AtLine { line: l, source }) => {
                    assert_eq!(l, line, "{text:?}");
                    assert!(
                        matches!(*source, GraphError::InvalidWeight { .. }),
                        "{text:?}"
                    );
                }
                other => panic!("{text:?}: expected invalid-weight at line {line}, got {other:?}"),
            }
        }
    }

    #[test]
    fn edge_list_rejects_trailing_tokens() {
        assert!(matches!(
            read_edge_list("0 1 0.5 extra\n".as_bytes(), 2, 1.0),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn fuzzed_edge_lists_never_panic() {
        // Fuzz-style sweep: mutate a valid fixture with deterministic
        // byte-level and line-level corruptions; every outcome must be a
        // clean parse or a typed `GraphError` — never a panic — and line
        // numbers in errors must stay within the mutated document.
        let fixture = "# nodes 6 edges 5\n0 1 0.25\n1 2 0.5\n2 3\n3 4 0.75\n4 5 1.0\n";
        // Seeded, so every mutation below replays exactly.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x9e3779b97f4a7c15);
        let mut next = move || rand::RngCore::next_u64(&mut rng);
        let mut attempts = 0usize;
        for _ in 0..400 {
            let mut text = fixture.as_bytes().to_vec();
            match next() % 5 {
                0 => {
                    // Flip a byte.
                    let pos = (next() as usize) % text.len();
                    text[pos] ^= (next() as u8) | 1;
                }
                1 => {
                    // Truncate.
                    text.truncate((next() as usize) % text.len());
                }
                2 => {
                    // Duplicate a line.
                    let lines: Vec<&str> = fixture.lines().collect();
                    let dup = lines[(next() as usize) % lines.len()];
                    text.extend_from_slice(dup.as_bytes());
                    text.push(b'\n');
                }
                3 => {
                    // Splice hostile tokens onto a fresh line.
                    let hostile = [
                        "NaN NaN NaN",
                        "1 1",
                        "-1 2",
                        "0 1 1e308",
                        "0 1 -0.0",
                        "\u{7f}",
                    ];
                    text.extend_from_slice(hostile[(next() as usize) % hostile.len()].as_bytes());
                    text.push(b'\n');
                }
                _ => {
                    // Insert bytes mid-stream.
                    let pos = (next() as usize) % text.len();
                    let junk = [b' ', b'\n', b'#', b'.', b'9', 0xff];
                    text.insert(pos, junk[(next() as usize) % junk.len()]);
                }
            }
            attempts += 1;
            let total_lines = text.split(|&b| b == b'\n').count();
            let line_of = |e: &GraphError| match e {
                GraphError::Parse { line, .. }
                | GraphError::SelfLoop { line, .. }
                | GraphError::DuplicateEdge { line, .. }
                | GraphError::AtLine { line, .. } => Some(*line),
                _ => None,
            };
            if let Err(e) = read_edge_list(&text[..], 6, 1.0) {
                if let Some(line) = line_of(&e) {
                    assert!(
                        line >= 1 && line <= total_lines,
                        "{e} vs {total_lines} lines"
                    );
                }
            }
            if let Ok(s) = std::str::from_utf8(&text) {
                let _ = read_edge_list_auto(s, 1.0);
            }
        }
        assert_eq!(attempts, 400);
    }

    #[test]
    fn edge_list_writer_refuses_what_the_reader_rejects() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5);
        b.add_edge(2, 2, 0.5);
        let mut buf = Vec::new();
        assert!(matches!(
            write_edge_list(&b.build(), &mut buf),
            Err(GraphError::SelfLoop { node: 2, line: 3 })
        ));
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5);
        b.add_edge(0, 1, 0.25);
        assert!(matches!(
            write_edge_list(&b.build(), &mut buf),
            Err(GraphError::DuplicateEdge {
                src: 0,
                dst: 1,
                line: 3
            })
        ));
        assert!(buf.is_empty(), "nothing is written for a refused graph");
    }

    #[test]
    fn auto_edge_list_infers_node_count() {
        let g = read_edge_list_auto("0 3\n1 2 0.5\n", 1.0).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_weights(1), &[0.5]);
    }

    #[test]
    fn auto_edge_list_honors_header_when_larger() {
        let g = read_edge_list_auto("# nodes 10 edges 1\n0 1\n", 1.0).unwrap();
        assert_eq!(g.num_nodes(), 10);
        // Edge ids above the declared count still win.
        let g = read_edge_list_auto("# nodes 2 edges 1\n0 5\n", 1.0).unwrap();
        assert_eq!(g.num_nodes(), 6);
    }

    #[test]
    fn auto_edge_list_round_trips_writer_output() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(read_edge_list_auto(&text, 1.0).unwrap(), g);
    }

    #[test]
    fn binary_round_trip() {
        let g = sample();
        let bytes = encode_binary(&g);
        let back = decode_binary(&bytes).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = sample();
        let bytes = encode_binary(&g);
        assert!(matches!(
            decode_binary(&bytes[..4]),
            Err(GraphError::Corrupt(_))
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_binary(&bad), Err(GraphError::Corrupt(_))));
        let mut truncated = bytes.clone();
        truncated.pop();
        assert!(matches!(
            decode_binary(&truncated),
            Err(GraphError::Corrupt(_))
        ));
    }

    #[test]
    fn binary_file_round_trip() {
        let g = sample();
        let dir = std::env::temp_dir().join("privim-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        save_binary(&g, &path).unwrap();
        let back = load_binary(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::empty(5);
        assert_eq!(decode_binary(&encode_binary(&g)).unwrap(), g);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(read_edge_list(&buf[..], 5, 1.0).unwrap(), g);
    }
}
