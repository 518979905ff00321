//! In-memory spans recorded around calls into each layer, and the
//! per-layer self times derived from them.
//!
//! A span is one call: its layer, start, end, the span that caused it, and
//! the campaign and execution it belongs to. Spans stay in memory until the
//! benchmark ends; a layer's self time is its spans' duration minus the part
//! their child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers the traced runner times. `Exec` is the root that groups one
/// execution's calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Exec,
    Compile,
    Cfg,
    Dataflow,
    Harvest,
    Deploy,
    Seedgen,
    Mutation,
    Executor,
    Oracles,
    Coverage,
    Energy,
    Distance,
}

impl Layer {
    pub const COUNT: usize = 13;

    pub fn name(self) -> &'static str {
        match self {
            Layer::Exec => "campaign.exec",
            Layer::Compile => "lang.compile",
            Layer::Cfg => "analysis.cfg",
            Layer::Dataflow => "analysis.dataflow",
            Layer::Harvest => "mutation.harvest",
            Layer::Deploy => "executor.deploy",
            Layer::Seedgen => "seedgen",
            Layer::Mutation => "mutation",
            Layer::Executor => "executor",
            Layer::Oracles => "oracles",
            Layer::Coverage => "coverage",
            Layer::Energy => "energy",
            Layer::Distance => "analysis.distance",
        }
    }

    /// Whether the layer runs once per campaign, before any execution.
    pub fn is_setup(self) -> bool {
        matches!(
            self,
            Layer::Compile | Layer::Cfg | Layer::Dataflow | Layer::Harvest | Layer::Deploy
        )
    }
}

/// No parent: the span is a root.
const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    /// Index of the enclosing span in the same recorder, or `NO_PARENT`.
    pub parent: u32,
    pub campaign: u32,
    /// Execution number within the campaign (0 for set-up spans).
    pub exec: u32,
    /// Nanoseconds since the benchmark's origin instant.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one thread of work, in memory.
pub struct Recorder {
    origin: Instant,
    campaign: u32,
    exec: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, campaign: u32) -> Recorder {
        Recorder {
            origin,
            campaign,
            exec: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tag the spans that follow with an execution number.
    pub fn set_exec(&mut self, exec: u32) {
        self.exec = exec;
    }

    pub fn enter(&mut self, layer: Layer) {
        let index = u32::try_from(self.spans.len()).expect("span count fits in u32");
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            campaign: self.campaign,
            exec: self.exec,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
    }

    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span of `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Per-layer totals derived from a set of recorders.
#[derive(Default)]
pub struct LayerTimes {
    /// Self time per layer, in nanoseconds.
    pub self_ns: [u64; Layer::COUNT],
    /// Duration of every `Executor` span, in nanoseconds.
    pub executor_ns: Vec<u64>,
}

impl LayerTimes {
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        for (span, children) in spans.iter().zip(&child_ns) {
            let layer = span.layer as usize;
            self.self_ns[layer] += span.duration_ns().saturating_sub(*children);
            if span.layer == Layer::Executor {
                self.executor_ns.push(span.duration_ns());
            }
        }
    }

    pub fn self_ns(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64
    }

    /// Self time of the program's layers in the campaign loop (everything
    /// but set-up and the runner's own `Exec` roots).
    pub fn loop_self_ns(&self) -> f64 {
        ALL_LAYERS
            .iter()
            .filter(|l| **l != Layer::Exec && !l.is_setup())
            .map(|&l| self.self_ns(l))
            .sum()
    }
}

const ALL_LAYERS: [Layer; Layer::COUNT] = [
    Layer::Exec,
    Layer::Compile,
    Layer::Cfg,
    Layer::Dataflow,
    Layer::Harvest,
    Layer::Deploy,
    Layer::Seedgen,
    Layer::Mutation,
    Layer::Executor,
    Layer::Oracles,
    Layer::Coverage,
    Layer::Energy,
    Layer::Distance,
];

/// Write every span as one CSV line: `campaign,lane,exec,span,parent,layer,
/// start_ns,end_ns`. Span and parent are indices within the lane's list; an
/// empty parent marks a root.
pub fn write_csv<'a>(
    path: &Path,
    campaigns: impl Iterator<Item = &'a [Vec<Span>]>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "campaign,lane,exec,span,parent,layer,start_ns,end_ns")?;
    for lanes in campaigns {
        for (lane, spans) in lanes.iter().enumerate() {
            for (index, span) in spans.iter().enumerate() {
                let parent = if span.parent == NO_PARENT {
                    String::new()
                } else {
                    span.parent.to_string()
                };
                writeln!(
                    out,
                    "{},{lane},{},{index},{parent},{},{},{}",
                    span.campaign,
                    span.exec,
                    span.layer.name(),
                    span.start_ns,
                    span.end_ns
                )?;
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            Span {
                layer: Layer::Exec,
                parent: NO_PARENT,
                campaign: 0,
                exec: 1,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: Layer::Executor,
                parent: 0,
                campaign: 0,
                exec: 1,
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                layer: Layer::Oracles,
                parent: 0,
                campaign: 0,
                exec: 1,
                start_ns: 70,
                end_ns: 90,
            },
        ];
        let mut times = LayerTimes::default();
        times.add(&spans);
        assert_eq!(times.self_ns(Layer::Exec), 20.0);
        assert_eq!(times.self_ns(Layer::Executor), 60.0);
        assert_eq!(times.loop_self_ns(), 80.0);
        assert_eq!(times.executor_ns, vec![60]);
    }
}
