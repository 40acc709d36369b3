//! Per-layer probes: each layer's public functions called from outside on
//! the workload's own files and queries, one span per call. The layer costs
//! are read back from the spans.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Query;
use jdm::binary::{write_item, ItemRef};
use jdm::index::StructuralIndex;
use jdm::project::RecordTable;
use jdm::{Item, PathStep, ProjectionPath};
use std::hint::black_box;
use std::io::Read as _;
use std::path::PathBuf;
use std::sync::Arc;
use vxq_core::compile::{compile_plan, CompileOptions};
use vxq_core::{Engine, ScanBufferPool};

/// The path the rewrite rules push into `query`'s DATASCANs:
/// `("root")()("results")()`, extended by `("date")` for Q0b.
pub fn scan_path(query: &Query) -> ProjectionPath {
    let mut path = ProjectionPath::new(vec![
        PathStep::Key("root".into()),
        PathStep::AllMembers,
        PathStep::Key("results".into()),
        PathStep::AllMembers,
    ]);
    if let Query::Select { whole: false, .. } = query {
        path.push(PathStep::Key("date".into()));
    }
    path
}

/// Per-request sums of the spans named `name`, in ms: one value per
/// request of `requests`.
fn per_request_ms(tracer: &Tracer, name: &str, requests: &[u64]) -> Vec<f64> {
    let spans = tracer.spans();
    requests
        .iter()
        .map(|r| {
            spans
                .iter()
                .filter(|s| s.request == *r && s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .sum()
        })
        .collect()
}

/// Costs of the scan-side layers, per MB of text or per projected item.
#[derive(Debug, Clone, Default)]
pub struct ScanLayers {
    pub read_ms_per_mb: f64,
    pub index_ms_per_mb: f64,
    pub record_table_ms_per_mb: f64,
    pub materialize_ns_per_item: f64,
    pub items_per_mb: f64,
    pub encode_ns_per_item: f64,
    pub decode_ns_per_item: f64,
    pub get_key_ns_per_item: f64,
}

/// Run every file through the scan as the engine's whole-file path does:
/// read into a reused buffer, index into a reused tape, build the record
/// table, then project along `path` with each item encoded into a reused
/// buffer as it is produced. That is `reps` repetitions, each one request;
/// the result holds the median repetition of each layer. Encode, decode and
/// the zero-copy `date` lookup get their own spans on a sample, the items of
/// the first file, and materialize is the streamed projection less the
/// sample's encode cost per item.
pub fn probe_scan(
    files: &[PathBuf],
    stage1: jdm::stage1::Stage1Mode,
    path: &ProjectionPath,
    tracer: &Tracer,
    reps: usize,
) -> Result<ScanLayers, String> {
    let (mut buf, mut tape, mut item_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let read_into = |file: &PathBuf, buf: &mut Vec<u8>| {
        buf.clear();
        std::fs::File::open(file)
            .and_then(|mut f| f.read_to_end(buf))
            .map_err(|e| format!("{}: {e}", file.display()))
    };
    let table_of = |buf: &[u8], index: &StructuralIndex| {
        RecordTable::build(buf, index, path)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "projection path has no () step".to_string())
    };

    // The sample: the first file's items, and their encodings end to end.
    let mut sample: Vec<Item> = Vec::new();
    if let Some(first) = files.first() {
        read_into(first, &mut buf)?;
        let index = StructuralIndex::build_with(&buf, stage1).map_err(|e| e.to_string())?;
        let table = table_of(&buf, &index)?;
        table
            .project_range(&buf, &index, path, 0..table.len(), |item| {
                sample.push(item);
                true
            })
            .map_err(|e| e.to_string())?;
    }
    let mut encoded = Vec::new();
    let ends: Vec<usize> = sample
        .iter()
        .map(|item| {
            write_item(item, &mut encoded);
            encoded.len()
        })
        .collect();
    let sample_refs = || {
        let starts = std::iter::once(0).chain(ends.iter().copied());
        starts
            .zip(ends.iter().copied())
            .map(|(s, e)| &encoded[s..e])
    };

    let mut requests = Vec::new();
    let (mut bytes, mut items) = (0usize, 0usize);
    for _ in 0..reps {
        let request = tracer.request("probe.scan");
        requests.push(request.request_id());
        (bytes, items) = (0, 0);
        for file in files {
            {
                let _s = tracer.span("scan.read");
                read_into(file, &mut buf)?;
            }
            let index = {
                let _s = tracer.span("jdm.index");
                StructuralIndex::build_reusing_with(&buf, std::mem::take(&mut tape), stage1)
                    .map_err(|e| e.to_string())?
            };
            let table = {
                let _s = tracer.span("jdm.record_table");
                table_of(&buf, &index)?
            };
            {
                let _s = tracer.span("jdm.project_encode");
                table
                    .project_range(&buf, &index, path, 0..table.len(), |item| {
                        item_bytes.clear();
                        write_item(&item, &mut item_bytes);
                        black_box(&item_bytes);
                        items += 1;
                        true
                    })
                    .map_err(|e| e.to_string())?;
            }
            tape = index.into_tape();
            bytes += buf.len();
        }
        {
            let _s = tracer.span("jdm.encode");
            for item in &sample {
                item_bytes.clear();
                write_item(item, &mut item_bytes);
                black_box(&item_bytes);
            }
        }
        {
            let _s = tracer.span("jdm.decode");
            for bytes in sample_refs() {
                let item = ItemRef::new(bytes).and_then(|r| r.to_item());
                black_box(item.map_err(|e| e.to_string())?);
            }
        }
        {
            let _s = tracer.span("jdm.get_key");
            for bytes in sample_refs() {
                let r = ItemRef::new(bytes).map_err(|e| e.to_string())?;
                black_box(r.get_key("date"));
            }
        }
    }
    let mb = bytes as f64 / (1u64 << 20) as f64;
    let items = items.max(1) as f64;
    let sampled = sample.len().max(1) as f64;
    let ms = |name| median(&per_request_ms(tracer, name, &requests));
    let encode_ns_per_item = ms("jdm.encode") * 1e6 / sampled;
    Ok(ScanLayers {
        read_ms_per_mb: ms("scan.read") / mb,
        index_ms_per_mb: ms("jdm.index") / mb,
        record_table_ms_per_mb: ms("jdm.record_table") / mb,
        materialize_ns_per_item: ms("jdm.project_encode") * 1e6 / items - encode_ns_per_item,
        items_per_mb: items / mb,
        encode_ns_per_item,
        decode_ns_per_item: ms("jdm.decode") * 1e6 / sampled,
        get_key_ns_per_item: ms("jdm.get_key") * 1e6 / sampled,
    })
}

/// Costs of the query front half, in µs per query.
#[derive(Debug, Clone, Default)]
pub struct FrontLayers {
    pub parse_us: f64,
    pub translate_us: f64,
    pub optimize_us: f64,
    /// Rule firings per query.
    pub rule_firings: f64,
    pub compile_us: f64,
    pub prepare_us: f64,
}

/// Parse, translate, optimize and compile each text, and separately
/// `Engine::prepare` it, `reps` times. Each layer's cost is the median over
/// repetitions per text, averaged over texts.
pub fn probe_front(
    engine: &Engine,
    texts: &[String],
    tracer: &Tracer,
    reps: usize,
) -> Result<FrontLayers, String> {
    let config = engine.config();
    let rules = algebra::rules::RuleSet::for_config(config.rules);
    let compile_opts = CompileOptions {
        data_root: config.data_root.clone(),
        nodes: config.cluster.nodes,
        two_step_aggregation: config.rules.two_step_aggregation,
        scan: config.scan.clone(),
        pool: Arc::new(ScanBufferPool::new()),
    };
    let mut out = FrontLayers::default();
    for text in texts {
        let mut requests = Vec::new();
        let mut firings = 0;
        for _ in 0..reps {
            let request = tracer.request("probe.front");
            requests.push(request.request_id());
            let expr = {
                let _s = tracer.span("jsoniq.parse");
                jsoniq::parser::parse(text).map_err(|e| e.to_string())?
            };
            let mut plan = {
                let _s = tracer.span("jsoniq.translate");
                jsoniq::translate::translate(&expr).map_err(|e| e.to_string())?
            };
            firings = {
                let _s = tracer.span("algebra.optimize");
                rules.optimize_traced(&mut plan).len()
            };
            {
                let _s = tracer.span("compile.compile_plan");
                black_box(compile_plan(&plan, &compile_opts).map_err(|e| e.to_string())?);
            }
            {
                let _s = tracer.span("engine.prepare");
                black_box(engine.prepare(text, None).map_err(|e| e.to_string())?);
            }
        }
        let us = |name| median(&per_request_ms(tracer, name, &requests)) * 1e3;
        out.parse_us += us("jsoniq.parse");
        out.translate_us += us("jsoniq.translate");
        out.optimize_us += us("algebra.optimize");
        out.compile_us += us("compile.compile_plan");
        out.prepare_us += us("engine.prepare");
        out.rule_firings += firings as f64;
    }
    let n = texts.len().max(1) as f64;
    for v in [
        &mut out.parse_us,
        &mut out.translate_us,
        &mut out.optimize_us,
        &mut out.compile_us,
        &mut out.prepare_us,
        &mut out.rule_firings,
    ] {
        *v /= n;
    }
    Ok(out)
}
