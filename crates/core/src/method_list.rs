//! Validated method lists: the one type that turns registry ids into an
//! engine or grid order.
//!
//! Every pluggable backend family is a small `Copy` enum with a stable
//! string id per variant: the pure-NE solvers ([`SolverKind`]), the OPT
//! estimators ([`OptBackendKind`]) and, in `instance-gen`, the belief
//! models. [`MethodKind`] names that shape, and [`MethodList<K>`] is an
//! ordered, non-empty, duplicate-free list of one family's kinds. The
//! experiment CLI's comma-separated flags, the sweep's shard-file stamps
//! and the service's policy leaves all validate through it, so every edge
//! accepts and rejects exactly the same lists.
//!
//! ```
//! use netuncert_core::prelude::*;
//!
//! let list = MethodList::<SolverKind>::parse("local_search, exhaustive")?;
//! assert_eq!(list.kinds(), &[SolverKind::LocalSearch, SolverKind::Exhaustive]);
//! assert_eq!(list.to_string(), "local_search,exhaustive");
//! assert_eq!(
//!     MethodList::<SolverKind>::parse("exhaustive,exhaustive"),
//!     Err(MethodListError::Duplicate(SolverKind::Exhaustive))
//! );
//! # Ok::<(), MethodListError<SolverKind>>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::opt::OptBackendKind;
use crate::solvers::engine::SolverKind;

/// How many kinds a [`MethodList`] holds inline. Every registry must fit;
/// building a list over a kind whose `ALL` outgrows it fails to compile.
const CAPACITY: usize = 8;

/// A registry of interchangeable methods, one enum variant per backend.
pub trait MethodKind: Copy + Eq + fmt::Debug + 'static {
    /// Every kind, in registry order. Lists every variant exactly once.
    const ALL: &'static [Self];
    /// What one kind is called in messages, e.g. `"opt backend"`.
    const NOUN: &'static str;
    /// What the unknown-id message calls the registry, e.g. `"backends"`.
    const KNOWN: &'static str;
    /// The stable CLI/registry id.
    fn id(self) -> &'static str;
}

impl MethodKind for SolverKind {
    const ALL: &'static [Self] = &SolverKind::ALL;
    const NOUN: &'static str = "solver";
    const KNOWN: &'static str = "solvers";
    fn id(self) -> &'static str {
        SolverKind::id(self)
    }
}

impl MethodKind for OptBackendKind {
    const ALL: &'static [Self] = &OptBackendKind::ALL;
    const NOUN: &'static str = "opt backend";
    const KNOWN: &'static str = "backends";
    fn id(self) -> &'static str {
        OptBackendKind::id(self)
    }
}

/// Why a list of ids is not a valid [`MethodList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MethodListError<K> {
    /// An id that names no kind in the registry.
    Unknown(String),
    /// The list names no kind at all.
    Empty,
    /// The list names this kind more than once.
    Duplicate(K),
}

impl<K: MethodKind> fmt::Display for MethodListError<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodListError::Unknown(id) => {
                let known: Vec<&str> = K::ALL.iter().map(|k| k.id()).collect();
                write!(
                    f,
                    "unknown {} `{id}`; known {}: {}",
                    K::NOUN,
                    K::KNOWN,
                    known.join(", ")
                )
            }
            MethodListError::Empty => {
                write!(f, "a method list must name at least one {}", K::NOUN)
            }
            MethodListError::Duplicate(kind) => {
                write!(f, "{} `{}` was selected twice", K::NOUN, kind.id())
            }
        }
    }
}

/// An ordered, non-empty, duplicate-free list of one registry's kinds.
///
/// `Copy` (a fixed inline array), so configurations holding lists stay
/// plain values. It displays as comma-separated ids and serializes as an
/// array of ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodList<K> {
    /// The kinds in order; slots past `len` hold `K::ALL[0]`, so derived
    /// equality compares only what the list names.
    kinds: [K; CAPACITY],
    len: u8,
}

impl<K: MethodKind> MethodList<K> {
    const FITS: () = assert!(K::ALL.len() <= CAPACITY, "a registry outgrew MethodList");

    /// A list of explicit kinds, in the given order.
    pub fn new(kinds: &[K]) -> Result<Self, MethodListError<K>> {
        let () = Self::FITS;
        if kinds.is_empty() {
            return Err(MethodListError::Empty);
        }
        let mut stored = [K::ALL[0]; CAPACITY];
        for (i, &kind) in kinds.iter().enumerate() {
            if kinds[..i].contains(&kind) {
                return Err(MethodListError::Duplicate(kind));
            }
            // Duplicate-free kinds number at most `K::ALL.len()`, which fits.
            stored[i] = kind;
        }
        Ok(MethodList {
            kinds: stored,
            len: kinds.len() as u8,
        })
    }

    /// Every kind, in [`MethodKind::ALL`] order.
    pub fn all() -> Self {
        MethodList::new(K::ALL).expect("a registry lists each kind once")
    }

    /// Resolves ids in order. The first unknown id is the error; an empty
    /// or duplicated list is checked after every id resolved.
    pub fn from_ids<S: AsRef<str>>(ids: &[S]) -> Result<Self, MethodListError<K>> {
        let kinds = ids
            .iter()
            .map(|id| {
                let id = id.as_ref();
                K::ALL
                    .iter()
                    .copied()
                    .find(|k| k.id() == id)
                    .ok_or_else(|| MethodListError::Unknown(id.to_string()))
            })
            .collect::<Result<Vec<K>, _>>()?;
        MethodList::new(&kinds)
    }

    /// Parses the CLI form: comma-separated ids, each trimmed, blanks
    /// skipped, e.g. `"two_links, local_search,exhaustive"`.
    pub fn parse(s: &str) -> Result<Self, MethodListError<K>> {
        let ids: Vec<&str> = s
            .split(',')
            .map(str::trim)
            .filter(|id| !id.is_empty())
            .collect();
        MethodList::from_ids(&ids)
    }

    /// The kinds, in list order.
    pub fn kinds(&self) -> &[K] {
        &self.kinds[..self.len as usize]
    }
}

impl<K: MethodKind> fmt::Display for MethodList<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<&str> = self.kinds().iter().map(|k| k.id()).collect();
        write!(f, "{}", ids.join(","))
    }
}

impl<K: MethodKind> Serialize for MethodList<K> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(
            self.kinds()
                .iter()
                .map(|k| serde::Value::Str(k.id().to_string()))
                .collect(),
        )
    }
}

impl<K: MethodKind> Deserialize for MethodList<K> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let ids: Vec<String> = Deserialize::from_value(v)?;
        MethodList::from_ids(&ids).map_err(|e| serde::Error::custom(e.to_string()))
    }
}
