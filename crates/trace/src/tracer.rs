//! The [`Tracer`] handle: an owned, `Send` emission point threaded
//! through every simulation layer.
//!
//! A disabled tracer (the default) is a `None` — emission is a branch on an
//! `Option` and nothing else, so tracing costs effectively nothing when
//! off and, crucially, *changes* nothing: no statistics counter or cycle
//! count ever depends on whether a tracer is connected.
//!
//! The tracer **owns** its sink (`Box<dyn TraceSink + Send>`). There is no
//! shared-ownership plumbing (`Rc<RefCell<_>>`) anywhere in the pipeline,
//! so a machine (and the kernel built on it) is a single owned value that
//! can move to any thread — the property the parallel sweep runner in
//! `vic-bench` builds on. When a caller needs to inspect a sink *after* a
//! run (read a histogram, collect auditor divergences), it keeps an
//! [`Arc<Mutex<S>>`] handle and hands the tracer a clone through
//! [`Tracer::new`]; the lock is uncontended in a single-threaded run.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// A consumer of the event stream.
pub trait TraceSink {
    /// Receive one event stamped with the simulated cycle clock.
    fn emit(&mut self, cycle: u64, event: &TraceEvent);

    /// Flush any buffered output; called once when the run ends.
    fn finish(&mut self) {}
}

/// A shared sink handle forwards to the sink behind the lock, so a caller
/// can keep one clone for post-run inspection and give the other to a
/// [`Tracer`].
impl<S: TraceSink + ?Sized> TraceSink for Arc<Mutex<S>> {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        self.lock().expect("trace sink poisoned").emit(cycle, event);
    }
    fn finish(&mut self) {
        self.lock().expect("trace sink poisoned").finish();
    }
}

/// Forward every event to several sinks (e.g. a JSON file *and* the
/// histogram *and* the auditor in one run).
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn TraceSink + Send>>,
}

impl FanoutSink {
    /// An empty fanout.
    pub fn new() -> Self {
        FanoutSink::default()
    }

    /// Add a sink; returns `self` for chaining. Pass an [`Arc<Mutex<S>>`]
    /// clone to keep the other handle for post-run inspection.
    pub fn with<S: TraceSink + Send + 'static>(mut self, sink: S) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }
}

impl TraceSink for FanoutSink {
    fn emit(&mut self, cycle: u64, event: &TraceEvent) {
        for s in &mut self.sinks {
            s.emit(cycle, event);
        }
    }
    fn finish(&mut self) {
        for s in &mut self.sinks {
            s.finish();
        }
    }
}

/// The emission handle. The machine's observers hold exactly one; the
/// kernel and the pmap emit through the machine, so all layers feed one
/// stream.
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink + Send>>,
}

impl Tracer {
    /// A disconnected tracer: every [`Tracer::emit`] is a no-op.
    pub fn off() -> Self {
        Tracer { sink: None }
    }

    /// A tracer owning `sink`. Pass an [`Arc<Mutex<S>>`] clone to keep
    /// the other handle and inspect the sink (read the histogram, collect
    /// auditor divergences) after the run.
    pub fn new<S: TraceSink + Send + 'static>(sink: S) -> Self {
        Tracer {
            sink: Some(Box::new(sink)),
        }
    }

    /// Whether a sink is connected. Callers may use this to skip building
    /// expensive events, though all events are `Copy` and cheap.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit one event at the given simulated cycle.
    #[inline]
    pub fn emit(&mut self, cycle: u64, event: TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.emit(cycle, &event);
        }
    }

    /// Flush the sink (end of run).
    pub fn finish(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.finish();
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_core::types::PFrame;

    #[derive(Default)]
    struct Counting {
        events: u64,
        finished: bool,
    }

    impl TraceSink for Counting {
        fn emit(&mut self, _cycle: u64, _event: &TraceEvent) {
            self.events += 1;
        }
        fn finish(&mut self) {
            self.finished = true;
        }
    }

    #[test]
    fn off_tracer_is_silent() {
        let mut t = Tracer::off();
        assert!(!t.is_enabled());
        t.emit(1, TraceEvent::ZeroFill { frame: PFrame(0) });
        t.finish();
    }

    #[test]
    fn tracer_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Tracer>();
        assert_send::<FanoutSink>();
    }

    #[test]
    fn shared_sink_is_inspectable_after_the_run() {
        let sink = Arc::new(Mutex::new(Counting::default()));
        let mut t = Tracer::new(sink.clone());
        t.emit(1, TraceEvent::ZeroFill { frame: PFrame(0) });
        t.emit(2, TraceEvent::ZeroFill { frame: PFrame(1) });
        t.finish();
        assert_eq!(sink.lock().unwrap().events, 2);
        assert!(sink.lock().unwrap().finished);
    }

    #[test]
    fn fanout_forwards_to_all() {
        let a = Arc::new(Mutex::new(Counting::default()));
        let b = Arc::new(Mutex::new(Counting::default()));
        let mut t = Tracer::new(FanoutSink::new().with(a.clone()).with(b.clone()));
        t.emit(1, TraceEvent::ZeroFill { frame: PFrame(0) });
        t.finish();
        assert_eq!(a.lock().unwrap().events, 1);
        assert_eq!(b.lock().unwrap().events, 1);
        assert!(a.lock().unwrap().finished && b.lock().unwrap().finished);
    }
}
