//! Potential deadlock cycles — concrete and abstract forms.

use std::fmt;

use df_abstraction::{Abstraction, Abstractor};
use df_events::{AcquireMode, Label, ObjId, ObjectTable, ThreadId};
use serde::{Deserialize, Serialize};

use crate::relation::LockDep;

/// One component of a concrete potential deadlock cycle: thread `thread`
/// acquires `lock` (in `mode`) while holding `lockset`, and the *next*
/// component's thread holds `lock` in a conflicting mode.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CycleComponent {
    /// The thread of this component.
    pub thread: ThreadId,
    /// The object representing the thread.
    pub thread_obj: ObjId,
    /// Locks held, outermost first.
    pub lockset: Vec<ObjId>,
    /// The lock being acquired.
    pub lock: ObjId,
    /// Acquisition sites of `lockset ∪ {lock}` (`lock`'s site last).
    pub contexts: Vec<Label>,
    /// Mode in which `lock` is being acquired.
    pub mode: AcquireMode,
    /// Modes in which each lock of `lockset` is held, parallel to it.
    pub hold_modes: Vec<AcquireMode>,
}

impl CycleComponent {
    /// An all-exclusive component — the plain-mutex vocabulary.
    pub fn exclusive(
        thread: ThreadId,
        thread_obj: ObjId,
        lockset: Vec<ObjId>,
        lock: ObjId,
        contexts: Vec<Label>,
    ) -> Self {
        let hold_modes = vec![AcquireMode::Exclusive; lockset.len()];
        CycleComponent {
            thread,
            thread_obj,
            lockset,
            lock,
            contexts,
            mode: AcquireMode::Exclusive,
            hold_modes,
        }
    }

    fn any_shared_hold(&self) -> bool {
        self.hold_modes.iter().any(|m| m.is_shared())
    }
}

impl From<&LockDep> for CycleComponent {
    fn from(d: &LockDep) -> Self {
        CycleComponent {
            thread: d.thread,
            thread_obj: d.thread_obj,
            lockset: d.lockset.clone(),
            lock: d.lock,
            contexts: d.contexts.clone(),
            mode: d.mode,
            hold_modes: d.hold_modes.clone(),
        }
    }
}

// Hand-written for the same reason as `LockDep`: all-exclusive
// components must serialize byte-identically to the pre-mode report
// format, and pre-mode artifacts must deserialize with exclusive
// defaults.
impl Serialize for CycleComponent {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let extra = usize::from(self.mode.is_shared()) + usize::from(self.any_shared_hold());
        let mut state = serializer.serialize_struct("CycleComponent", 5 + extra)?;
        state.serialize_field("thread", &self.thread)?;
        state.serialize_field("thread_obj", &self.thread_obj)?;
        state.serialize_field("lockset", &self.lockset)?;
        state.serialize_field("lock", &self.lock)?;
        state.serialize_field("contexts", &self.contexts)?;
        if self.mode.is_shared() {
            state.serialize_field("mode", &self.mode)?;
        }
        if self.any_shared_hold() {
            state.serialize_field("hold_modes", &self.hold_modes)?;
        }
        state.end()
    }
}

impl<'de> Deserialize<'de> for CycleComponent {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::__private as sp;
        let value = serde::Deserializer::__take_value(deserializer)?;
        let result: Result<Self, sp::DeError> = (move || {
            let mut entries = sp::expect_obj(value, "CycleComponent")?;
            let thread = sp::field(&mut entries, "thread")?;
            let thread_obj = sp::field(&mut entries, "thread_obj")?;
            let lockset: Vec<ObjId> = sp::field(&mut entries, "lockset")?;
            let lock = sp::field(&mut entries, "lock")?;
            let contexts = sp::field(&mut entries, "contexts")?;
            let mode = sp::field::<Option<AcquireMode>>(&mut entries, "mode")?.unwrap_or_default();
            let hold_modes = sp::field::<Option<Vec<AcquireMode>>>(&mut entries, "hold_modes")?
                .unwrap_or_else(|| vec![AcquireMode::Exclusive; lockset.len()]);
            Ok(CycleComponent {
                thread,
                thread_obj,
                lockset,
                lock,
                contexts,
                mode,
                hold_modes,
            })
        })();
        result.map_err(<D::Error as serde::de::Error>::custom)
    }
}

/// A concrete potential deadlock cycle found by iGoodlock (Definition 3):
/// a chain `(t_1, L_1, l_1, C_1) … (t_m, L_m, l_m, C_m)` with
/// `l_i ∈ L_{i+1}` and `l_m ∈ L_1`.
///
/// The ids in a `Cycle` belong to the *Phase I* execution; use
/// [`Cycle::abstract_with`] to translate it into the execution-independent
/// form Phase II needs.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Cycle {
    components: Vec<CycleComponent>,
}

impl Cycle {
    /// Creates a cycle from components (validated in debug builds).
    pub fn new(components: Vec<CycleComponent>) -> Self {
        debug_assert!(components.len() >= 2, "a deadlock cycle has ≥ 2 threads");
        debug_assert!(
            (0..components.len()).all(|i| {
                let next = &components[(i + 1) % components.len()];
                next.lockset.contains(&components[i].lock)
            }),
            "each component's lock must be held by the next component"
        );
        Cycle { components }
    }

    /// The cycle's components in chain order.
    pub fn components(&self) -> &[CycleComponent] {
        &self.components
    }

    /// Number of threads (= locks) in the cycle.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the cycle is empty (never true for iGoodlock output).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The threads, in chain order.
    pub fn threads(&self) -> Vec<ThreadId> {
        self.components.iter().map(|c| c.thread).collect()
    }

    /// The acquired locks, in chain order.
    pub fn locks(&self) -> Vec<ObjId> {
        self.components.iter().map(|c| c.lock).collect()
    }

    /// Translates the cycle into its abstract form using `abstractor`,
    /// looking up object metadata in `objects` (the Phase I execution's
    /// table).
    pub fn abstract_with(&self, objects: &ObjectTable, abstractor: &Abstractor) -> AbstractCycle {
        AbstractCycle {
            components: self
                .components
                .iter()
                .map(|c| AbstractComponent {
                    thread: abstractor.abs(objects, c.thread_obj),
                    lock: abstractor.abs(objects, c.lock),
                    context: c.contexts.clone(),
                    mode: c.mode,
                })
                .collect(),
        }
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            // Exclusive components render exactly as before the mode
            // vocabulary; shared acquisitions are called out as reads.
            write!(
                f,
                "({}, {}{}, [{}])",
                c.thread,
                if c.mode.is_shared() { "read " } else { "" },
                c.lock,
                c.contexts
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        Ok(())
    }
}

/// One component of an abstract deadlock cycle: `(abs(t), abs(l), C)` —
/// exactly what iGoodlock reports to the user and to Phase II (§2.2),
/// plus the mode of the blocking acquisition so reports can name read
/// and write sites.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AbstractComponent {
    /// Abstraction of the thread object.
    pub thread: Abstraction,
    /// Abstraction of the lock object.
    pub lock: Abstraction,
    /// Acquisition-site context (the paper's `C`).
    pub context: Vec<Label>,
    /// Mode of the blocking acquisition.
    pub mode: AcquireMode,
}

// Exclusive components keep the pre-mode report encoding byte-for-byte
// (the CI compat gate diffs `dfz analyze --json` against checked-in
// goldens); the `mode` field appears, last, only when shared.
impl Serialize for AbstractComponent {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let extra = usize::from(self.mode.is_shared());
        let mut state = serializer.serialize_struct("AbstractComponent", 3 + extra)?;
        state.serialize_field("thread", &self.thread)?;
        state.serialize_field("lock", &self.lock)?;
        state.serialize_field("context", &self.context)?;
        if self.mode.is_shared() {
            state.serialize_field("mode", &self.mode)?;
        }
        state.end()
    }
}

impl<'de> Deserialize<'de> for AbstractComponent {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::__private as sp;
        let value = serde::Deserializer::__take_value(deserializer)?;
        let result: Result<Self, sp::DeError> = (move || {
            let mut entries = sp::expect_obj(value, "AbstractComponent")?;
            let thread = sp::field(&mut entries, "thread")?;
            let lock = sp::field(&mut entries, "lock")?;
            let context = sp::field(&mut entries, "context")?;
            let mode = sp::field::<Option<AcquireMode>>(&mut entries, "mode")?.unwrap_or_default();
            Ok(AbstractComponent {
                thread,
                lock,
                context,
                mode,
            })
        })();
        result.map_err(<D::Error as serde::de::Error>::custom)
    }
}

impl AbstractComponent {
    /// An exclusive-mode component — the plain-mutex vocabulary.
    pub fn exclusive(thread: Abstraction, lock: Abstraction, context: Vec<Label>) -> Self {
        AbstractComponent {
            thread,
            lock,
            context,
            mode: AcquireMode::Exclusive,
        }
    }

    /// The site of the final (blocking) acquisition.
    pub fn acquire_site(&self) -> Label {
        *self
            .context
            .last()
            .expect("context always includes the acquire site")
    }

    /// The site of the *outermost* acquisition in the context — where the
    /// thread starts entering the cycle (used by the §4 yield
    /// optimization).
    pub fn outermost_site(&self) -> Label {
        *self
            .context
            .first()
            .expect("context always includes at least one site")
    }
}

/// An execution-independent potential deadlock cycle:
/// `(abs(t_1), abs(l_1), C_1) … (abs(t_m), abs(l_m), C_m)`.
///
/// Two abstract cycles are compared up to rotation via
/// [`AbstractCycle::matches`] — a deadlock witnessed in Phase II may list
/// its components starting from a different thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct AbstractCycle {
    components: Vec<AbstractComponent>,
}

impl AbstractCycle {
    /// Creates an abstract cycle.
    pub fn new(components: Vec<AbstractComponent>) -> Self {
        AbstractCycle { components }
    }

    /// The components in chain order.
    pub fn components(&self) -> &[AbstractComponent] {
        &self.components
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether there are no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The membership test `(abs(t), abs(l), C) ∈ Cycle` of Algorithm 3
    /// line 12, for a thread about to acquire `lock` at `site` while
    /// holding locks acquired at `held_sites` — so `C` is `held_sites`
    /// followed by `site`. With `use_context` off, only the thread and
    /// lock abstractions must match. Returns the matching component.
    pub fn find_component(
        &self,
        thread: &Abstraction,
        lock: &Abstraction,
        held_sites: &[Label],
        site: Label,
        use_context: bool,
    ) -> Option<&AbstractComponent> {
        self.components.iter().find(|c| {
            &c.thread == thread
                && &c.lock == lock
                && (!use_context || c.context.split_last() == Some((&site, held_sites)))
        })
    }

    /// Whether `other` is the same cycle up to rotation.
    pub fn matches(&self, other: &AbstractCycle) -> bool {
        if self.components.len() != other.components.len() {
            return false;
        }
        let n = self.components.len();
        if n == 0 {
            return true;
        }
        (0..n).any(|shift| (0..n).all(|i| self.components[i] == other.components[(i + shift) % n]))
    }
}

impl fmt::Display for AbstractCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(
                f,
                "({}, {}{}, [{}])",
                c.thread,
                if c.mode.is_shared() { "read " } else { "" },
                c.lock,
                c.context
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_abstraction::AbstractionMode;
    use df_events::ObjKind;

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    fn component(t: u32, tobj: u32, held: u32, lock: u32) -> CycleComponent {
        CycleComponent::exclusive(
            ThreadId::new(t),
            ObjId::new(tobj),
            vec![ObjId::new(held)],
            ObjId::new(lock),
            vec![l("run:15"), l("run:16")],
        )
    }

    fn two_cycle() -> Cycle {
        Cycle::new(vec![component(1, 10, 3, 4), component(2, 11, 4, 3)])
    }

    #[test]
    fn cycle_accessors() {
        let c = two_cycle();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.threads(), vec![ThreadId::new(1), ThreadId::new(2)]);
        assert_eq!(c.locks(), vec![ObjId::new(4), ObjId::new(3)]);
        assert!(!c.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "held by the next")]
    #[cfg(debug_assertions)]
    fn cycle_validation_rejects_broken_chain() {
        Cycle::new(vec![component(1, 10, 3, 4), component(2, 11, 5, 3)]);
    }

    #[test]
    fn abstract_cycle_matches_up_to_rotation() {
        let mk = |a: &str, b: &str| {
            AbstractComponent::exclusive(
                Abstraction::Site(l(a)),
                Abstraction::Site(l(b)),
                vec![l("run:15"), l("run:16")],
            )
        };
        let c1 = AbstractCycle::new(vec![mk("t:1", "l:1"), mk("t:2", "l:2")]);
        let c2 = AbstractCycle::new(vec![mk("t:2", "l:2"), mk("t:1", "l:1")]);
        let c3 = AbstractCycle::new(vec![mk("t:1", "l:1"), mk("t:3", "l:3")]);
        assert!(c1.matches(&c2));
        assert!(c2.matches(&c1));
        assert!(!c1.matches(&c3));
        assert!(c1.matches(&c1));
    }

    #[test]
    fn find_component_requires_exact_triple() {
        let comp = AbstractComponent::exclusive(
            Abstraction::Site(l("t:1")),
            Abstraction::Site(l("l:1")),
            vec![l("a:1"), l("a:2")],
        );
        let cycle = AbstractCycle::new(vec![comp.clone()]);
        let (t, lk) = (&comp.thread, &comp.lock);
        assert!(cycle
            .find_component(t, lk, &[l("a:1")], l("a:2"), true)
            .is_some());
        // Wrong site, wrong held prefix, or a missing outer hold all miss.
        assert!(cycle
            .find_component(t, lk, &[l("a:1")], l("a:3"), true)
            .is_none());
        assert!(cycle
            .find_component(t, lk, &[l("a:0")], l("a:2"), true)
            .is_none());
        assert!(cycle.find_component(t, lk, &[], l("a:2"), true).is_none());
        assert!(cycle
            .find_component(
                &Abstraction::Site(l("t:2")),
                lk,
                &[l("a:1")],
                l("a:2"),
                true
            )
            .is_none());
        // Context-insensitive: any context matches the (thread, lock) pair,
        // but the pair itself must still match.
        assert!(cycle.find_component(t, lk, &[], l("z:9"), false).is_some());
        assert!(cycle
            .find_component(&Abstraction::Site(l("t:2")), lk, &[], l("a:2"), false)
            .is_none());
        assert_eq!(comp.acquire_site(), l("a:2"));
        assert_eq!(comp.outermost_site(), l("a:1"));
    }

    #[test]
    fn abstract_with_uses_object_metadata() {
        let mut table = ObjectTable::new();
        let t1 = table.create(ObjKind::Thread, l("main:25"), None, vec![]);
        let t2 = table.create(ObjKind::Thread, l("main:26"), None, vec![]);
        let o1 = table.create(ObjKind::Lock, l("main:22"), None, vec![]);
        let o2 = table.create(ObjKind::Lock, l("main:23"), None, vec![]);
        let cycle = Cycle::new(vec![
            CycleComponent::exclusive(
                ThreadId::new(1),
                t1,
                vec![o1],
                o2,
                vec![l("run:15"), l("run:16")],
            ),
            CycleComponent::exclusive(
                ThreadId::new(2),
                t2,
                vec![o2],
                o1,
                vec![l("run:15"), l("run:16")],
            ),
        ]);
        let abs = cycle.abstract_with(&table, &Abstractor::new(AbstractionMode::Site));
        assert_eq!(abs.len(), 2);
        assert_eq!(abs.components()[0].thread, Abstraction::Site(l("main:25")));
        assert_eq!(abs.components()[0].lock, Abstraction::Site(l("main:23")));
        assert_eq!(abs.components()[1].lock, Abstraction::Site(l("main:22")));
        // Figure-1 style report text
        assert!(abs.to_string().contains("main:25"));
    }

    #[test]
    fn serde_round_trip() {
        let c = two_cycle();
        let json = serde_json::to_string(&c).unwrap();
        let back: Cycle = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn exclusive_components_serialize_without_mode_fields() {
        let c = two_cycle();
        let json = serde_json::to_string(&c).unwrap();
        assert!(!json.contains("mode"), "{json}");
        let abs_comp = AbstractComponent::exclusive(
            Abstraction::Site(l("t:1")),
            Abstraction::Site(l("l:1")),
            vec![l("a:1")],
        );
        let json = serde_json::to_string(&abs_comp).unwrap();
        assert!(!json.contains("mode"), "{json}");
        let back: AbstractComponent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, abs_comp);
    }

    #[test]
    fn shared_components_round_trip_and_render_as_reads() {
        let mut a = component(1, 10, 3, 4);
        a.mode = AcquireMode::Shared;
        a.hold_modes[0] = AcquireMode::Shared;
        let b = component(2, 11, 4, 3);
        let cycle = Cycle::new(vec![a, b]);
        let json = serde_json::to_string(&cycle).unwrap();
        assert!(json.contains("\"mode\":\"Shared\""), "{json}");
        assert!(json.contains("hold_modes"), "{json}");
        let back: Cycle = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cycle);
        let text = cycle.to_string();
        assert!(text.contains("read "), "{text}");

        let mut abs_comp = AbstractComponent::exclusive(
            Abstraction::Site(l("t:1")),
            Abstraction::Site(l("l:1")),
            vec![l("a:1")],
        );
        abs_comp.mode = AcquireMode::Shared;
        let json = serde_json::to_string(&abs_comp).unwrap();
        assert!(json.contains("\"mode\":\"Shared\""), "{json}");
        let back: AbstractComponent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, abs_comp);
        let abs_cycle = AbstractCycle::new(vec![abs_comp]);
        assert!(abs_cycle.to_string().contains("read "));
    }
}
