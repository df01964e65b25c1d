//! The world every workload shares: the location domain, the `events`
//! table, seeded row generation, engine configuration, the data
//! directory, and the host facts every result file records.

use std::path::{Path, PathBuf};

use instant_common::{DataType, Error, Result, Value};
use instant_core::schema::{Column, TableSchema};
use instant_core::{DbConfig, WalMode};
use instant_lcp::policy::parse_lcp;
use instant_workload::location::{LocationDomain, LocationShape};
use instant_workload::rng::Rng;
use instant_workload::zipf::Zipf;

pub const TABLE: &str = "events";

const USERS: usize = 500;
const SKEW: f64 = 0.9;
/// Fixed, so that which places are popular is the same under every
/// `--seed`: seeds change the sequence drawn, never the distribution.
const POPULARITY_SEED: u64 = 0x10CA_7104;

/// One generated row of `events`, before it has an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSpec {
    pub user: u16,
    /// Index into [`World::addresses`].
    pub addr: u16,
}

/// The location domain (2 000 addresses under 100 cities, 10 regions,
/// 2 countries) with a popularity order over its addresses.
pub struct World {
    pub domain: LocationDomain,
    /// `labels[a][k]`: address `a` generalised to level `k`.
    labels: Vec<[String; 4]>,
    /// Popularity rank → address index. The tree lists addresses country
    /// by country; ranking them in that order would put two thirds of
    /// all rows in one region, so ranks are a fixed shuffle of it.
    by_rank: Vec<u16>,
    addr_zipf: Zipf,
    user_zipf: Zipf,
}

impl World {
    pub fn new() -> World {
        let domain = LocationDomain::generate(LocationShape::default(), SKEW);
        let labels: Vec<[String; 4]> = domain
            .addresses()
            .iter()
            .map(|a| [0u8, 1, 2, 3].map(|k| domain.label_at(a, k)))
            .collect();
        let mut by_rank: Vec<u16> = (0..labels.len() as u16).collect();
        Rng::new(POPULARITY_SEED).shuffle(&mut by_rank);
        World {
            addr_zipf: Zipf::new(labels.len(), SKEW),
            user_zipf: Zipf::new(USERS, SKEW),
            domain,
            labels,
            by_rank,
        }
    }

    /// Address `addr` at accuracy level `level` (0 = the address itself).
    pub fn label(&self, addr: u16, level: u8) -> &str {
        &self.labels[addr as usize][level as usize]
    }

    /// Draw an address by popularity.
    pub fn sample_addr(&self, rng: &mut Rng) -> u16 {
        self.by_rank[self.addr_zipf.sample(rng)]
    }

    pub fn sample_row(&self, rng: &mut Rng) -> RowSpec {
        RowSpec {
            user: self.user_zipf.sample(rng) as u16,
            addr: self.sample_addr(rng),
        }
    }

    pub fn rows(&self, rng: &mut Rng, n: usize) -> Vec<RowSpec> {
        (0..n).map(|_| self.sample_row(rng)).collect()
    }

    /// The engine row for `spec` under `id`, as inserted.
    pub fn values(&self, id: i64, spec: RowSpec) -> Vec<Value> {
        self.values_at(id, spec, 0)
    }

    /// The row as a query at accuracy `level` returns it.
    pub fn values_at(&self, id: i64, spec: RowSpec, level: u8) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::Str(user_name(spec.user)),
            Value::Str(self.label(spec.addr, level).to_string()),
        ]
    }

    pub fn insert_sql(&self, id: i64, spec: RowSpec) -> String {
        format!(
            "INSERT INTO {TABLE} VALUES ({id}, '{}', '{}')",
            user_name(spec.user),
            self.label(spec.addr, 0)
        )
    }

    /// `events(id INT INDEXED, user TEXT, location TEXT DEGRADE … LCP
    /// '<lcp>' INDEXED)`; `indexed = false` drops both indexes, which is
    /// how the layer probes price index maintenance.
    pub fn schema(&self, lcp: &str, indexed: bool) -> Result<TableSchema> {
        let hierarchy = self.domain.hierarchy();
        let lcp = parse_lcp(lcp, Some(hierarchy.as_ref()))?;
        let mut id = Column::stable("id", DataType::Int);
        let mut location = Column::degradable("location", DataType::Str, hierarchy, lcp)?;
        if indexed {
            id = id.with_index();
            location = location.with_index();
        }
        TableSchema::new(
            TABLE,
            vec![id, Column::stable("user", DataType::Str), location],
        )
    }
}

pub fn user_name(user: u16) -> String {
    format!("user{user:04}")
}

/// Bytes of user data in one row: the id, the user name and the address
/// as the client sent them. The denominator of `space_amp` and `wal_amp`.
pub fn user_bytes(world: &World, spec: RowSpec) -> u64 {
    (8 + user_name(spec.user).len() + world.label(spec.addr, 0).len()) as u64
}

/// Engine configuration: [`DbConfig::base`] — sealed WAL, group commit
/// on, automatic WAL shards — on disk under `dir`, plus what a workload
/// pins. The flush policy is therefore "acknowledge after the covering
/// fsync" on every workload.
pub fn db_config(dir: &Path) -> DbConfig {
    let mut cfg = DbConfig::base();
    debug_assert_eq!(cfg.wal_mode, WalMode::Sealed);
    cfg.path = Some(dir.join("db"));
    cfg
}

pub const FLUSH_POLICY: &str = "WalMode::Sealed, group commit on: ack after the covering fsync";

/// A fresh, empty directory `<root>/<name>`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Copy a crashed engine's files (`db.idb`, `db.meta`, the `db.wal/`
/// segment tree) into `to`, for a recovery that must not see a previous
/// recovery's writes.
pub fn copy_tree(from: &Path, to: &Path) -> Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Host shape and provenance, recorded in every result file.
pub fn host_facts(data_dir: &Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        ("nproc".into(), nproc.to_string()),
        ("data_dir_fs".into(), filesystem_of(data_dir)),
        (
            "wal_shards".into(),
            DbConfig::base().effective_wal_shards().to_string(),
        ),
        ("flush_policy".into(), FLUSH_POLICY.into()),
        ("git_commit".into(), git_commit()),
    ]
}

/// Filesystem type of the mount holding `path`, from the mount table;
/// `unknown` where there is none to read.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_dev, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit; `unknown` outside a git repository (the
/// driver's checkout is not one).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A worker's failure, carried out of its thread as text.
pub fn thread_failed(what: &str) -> Error {
    Error::Unsupported(format!("{what} thread panicked"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_rows() {
        let w = World::new();
        let a = w.rows(&mut Rng::new(7), 100);
        let b = w.rows(&mut Rng::new(7), 100);
        let c = w.rows(&mut Rng::new(8), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn labels_follow_the_tree() {
        let w = World::new();
        assert_eq!(w.labels.len(), 2000);
        let a = 1234u16;
        assert!(w.label(a, 0).starts_with(w.label(a, 1)));
        assert!(w.label(a, 1).starts_with(w.label(a, 2)));
        assert!(w.label(a, 2).starts_with(w.label(a, 3)));
        assert!(w.label(a, 0).contains("/Addr"));
        assert!(!w.label(a, 1).contains("/Addr"));
    }

    #[test]
    fn popularity_is_not_aligned_with_the_tree() {
        let w = World::new();
        let mut rng = Rng::new(1);
        let mut per_region = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            let a = w.sample_addr(&mut rng);
            *per_region.entry(w.label(a, 2).to_string()).or_insert(0u32) += 1;
        }
        assert_eq!(per_region.len(), 10);
        let hottest = *per_region.values().max().unwrap();
        assert!(hottest < 8_000, "one region holds {hottest} of 20000 rows");
    }

    #[test]
    fn schema_has_the_issue_shape() {
        let w = World::new();
        let s = w.schema("d0:1h -> d1:1d -> d3:30d", true).unwrap();
        assert_eq!(s.arity(), 3);
        assert!(s.column(instant_common::ColumnId(0)).indexed);
        assert!(s.column(instant_common::ColumnId(2)).is_degradable());
        let bare = w.schema("d0:1h -> d1:1d -> d3:30d", false).unwrap();
        assert!(!bare.column(instant_common::ColumnId(2)).indexed);
    }
}
