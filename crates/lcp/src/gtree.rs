//! Explicit Generalization Trees (paper Fig. 1).
//!
//! "Given a domain generalization hierarchy for an attribute, a
//! generalization tree (GT) for that attribute gives, at various levels of
//! accuracy, the values that the attribute can take during its lifetime. …
//! a path from a particular node to the root of the GT expresses all
//! degraded forms the value of that node can take."
//!
//! The tree is stored as a flat arena (`Vec<Node>`), leaves at level 0 and
//! the root at level `levels-1`. Every node carries a label; labels must be
//! unique *within the tree* so that a stored degraded value (a bare string)
//! unambiguously identifies its node — this is what lets the engine apply
//! `f_k` to an already-degraded value without remembering where it came from.

use std::collections::HashMap;

use instant_common::{Error, LevelId, Result, Value};

use crate::hierarchy::Hierarchy;

#[derive(Debug, Clone)]
struct Node {
    label: String,
    level: u8,
    parent: Option<u32>,
    /// Number of leaves in this node's subtree (filled at build time);
    /// drives the residual-information metric.
    leaves_below: u64,
}

/// An immutable generalization tree over a string domain.
#[derive(Debug, Clone)]
pub struct GeneralizationTree {
    name: String,
    level_names: Vec<String>,
    nodes: Vec<Node>,
    by_label: HashMap<String, u32>,
    level_counts: Vec<u64>,
}

/// Incremental builder: add root-to-leaf (or leaf-to-root) label paths.
pub struct GtBuilder {
    name: String,
    level_names: Vec<String>,
    nodes: Vec<Node>,
    by_label: HashMap<String, u32>,
}

impl GeneralizationTree {
    /// Start building a GT named `name` with the given level names,
    /// ordered **from the most accurate (level 0) to the root**.
    pub fn builder(name: &str, level_names: &[&str]) -> GtBuilder {
        GtBuilder {
            name: name.to_string(),
            level_names: level_names.iter().map(|s| s.to_string()).collect(),
            nodes: Vec::new(),
            by_label: HashMap::new(),
        }
    }

    /// The domain name, e.g. `"location"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (level-0 values).
    pub fn leaf_count(&self) -> u64 {
        self.level_counts.first().copied().unwrap_or(0)
    }

    /// The full root-ward path of labels from `label`, starting at the value
    /// itself: exactly the paper's "all degraded forms the value … can take".
    pub fn degradation_path(&self, label: &str) -> Result<Vec<(LevelId, String)>> {
        let mut id = *self
            .by_label
            .get(label)
            .ok_or_else(|| Error::NotFound(format!("label '{label}' not in GT {}", self.name)))?;
        let mut path = Vec::new();
        loop {
            let node = &self.nodes[id as usize];
            path.push((LevelId(node.level), node.label.clone()));
            match node.parent {
                Some(p) => id = p,
                None => break,
            }
        }
        Ok(path)
    }

    fn node_of(&self, v: &Value) -> Result<u32> {
        let label = v
            .as_str()
            .map_err(|_| Error::NotFound(format!("GT {} holds strings, got {v}", self.name)))?;
        self.by_label
            .get(label)
            .copied()
            .ok_or_else(|| Error::NotFound(format!("label '{label}' not in GT {}", self.name)))
    }
}

impl GtBuilder {
    /// Add a leaf-to-root path of labels, length exactly `level_names.len()`.
    /// Shared prefixes (toward the root) merge; conflicting parentage errors
    /// at `build()`.
    pub fn path(mut self, labels_leaf_to_root: &[&str]) -> Self {
        // Stored transiently; validated in build(). We insert from the root
        // downward so parents exist before children.
        let depth = self.level_names.len();
        assert_eq!(
            labels_leaf_to_root.len(),
            depth,
            "path must name one label per level"
        );
        let mut parent: Option<u32> = None;
        for (i, label) in labels_leaf_to_root.iter().rev().enumerate() {
            let level = (depth - 1 - i) as u8;
            let id = match self.by_label.get(*label) {
                Some(&id) => {
                    let node = &self.nodes[id as usize];
                    // Record a conflict by poisoning the level; checked in build.
                    if node.level != level || node.parent != parent {
                        // Duplicate label used at a different position.
                        self.nodes[id as usize].level = u8::MAX;
                    }
                    id
                }
                None => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(Node {
                        label: (*label).to_string(),
                        level,
                        parent,
                        leaves_below: 0,
                    });
                    self.by_label.insert((*label).to_string(), id);
                    id
                }
            };
            parent = Some(id);
        }
        self
    }

    /// Finish the tree: validates single root, consistent levels, and
    /// computes per-node leaf counts.
    pub fn build(self) -> Result<GeneralizationTree> {
        let GtBuilder {
            name,
            level_names,
            mut nodes,
            by_label,
        } = self;
        if level_names.len() < 2 {
            return Err(Error::Policy(format!(
                "GT {name} needs at least two levels (value + one generalization)"
            )));
        }
        if nodes.is_empty() {
            return Err(Error::Policy(format!("GT {name} has no paths")));
        }
        let depth = level_names.len() as u8;
        // The GT may be a forest at the top level (several countries in
        // Fig. 1); an implicit ⊤ above the top level is understood. Every
        // parentless node must therefore sit at the coarsest level.
        for n in nodes.iter().filter(|n| n.parent.is_none()) {
            if n.level != depth - 1 && n.level != u8::MAX {
                return Err(Error::Policy(format!(
                    "GT {name}: root '{}' must be at the coarsest level {}",
                    n.label,
                    depth - 1
                )));
            }
        }
        for n in &nodes {
            if n.level == u8::MAX {
                return Err(Error::Policy(format!(
                    "GT {name}: label '{}' used inconsistently (levels or parents differ)",
                    n.label
                )));
            }
            if n.level >= depth {
                return Err(Error::Policy(format!(
                    "GT {name}: node '{}' at level {} exceeds depth {depth}",
                    n.label, n.level
                )));
            }
        }
        // Leaf counts: every level-0 node contributes 1 to each ancestor.
        let leaf_ids: Vec<u32> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.level == 0)
            .map(|(i, _)| i as u32)
            .collect();
        for leaf in &leaf_ids {
            let mut cur = Some(*leaf);
            while let Some(id) = cur {
                nodes[id as usize].leaves_below += 1;
                cur = nodes[id as usize].parent;
            }
        }
        let mut level_counts = vec![0u64; depth as usize];
        for n in &nodes {
            level_counts[n.level as usize] += 1;
        }
        Ok(GeneralizationTree {
            name,
            level_names,
            nodes,
            by_label,
            level_counts,
        })
    }
}

impl Hierarchy for GeneralizationTree {
    fn levels(&self) -> u8 {
        self.level_names.len() as u8
    }

    fn level_of(&self, v: &Value) -> Option<LevelId> {
        self.node_of(v)
            .ok()
            .map(|id| LevelId(self.nodes[id as usize].level))
    }

    fn generalize(&self, v: &Value, k: LevelId) -> Result<Value> {
        self.check_level(k)?;
        let mut id = self.node_of(v)?;
        let cur = self.nodes[id as usize].level;
        if cur > k.0 {
            return Err(Error::Accuracy(format!(
                "level d{} not computable: '{v}' already degraded to d{cur} in GT {}",
                k.0, self.name
            )));
        }
        while self.nodes[id as usize].level < k.0 {
            id = self.nodes[id as usize]
                .parent
                .expect("non-root node below requested level must have parent");
        }
        Ok(Value::Str(self.nodes[id as usize].label.clone()))
    }

    fn residual_info(&self, v: &Value, k: LevelId) -> f64 {
        let total = self.leaf_count() as f64;
        if total <= 1.0 {
            return 0.0;
        }
        let Ok(gen) = self.generalize(v, k) else {
            return 0.0;
        };
        let Ok(id) = self.node_of(&gen) else {
            return 0.0;
        };
        let below = self.nodes[id as usize].leaves_below.max(1) as f64;
        // Bits of the domain still determined, normalized: log(N/|subtree|)/log N.
        ((total / below).log2() / total.log2()).clamp(0.0, 1.0)
    }

    fn level_name(&self, k: LevelId) -> String {
        self.level_names
            .get(k.0 as usize)
            .cloned()
            .unwrap_or_else(|| format!("d{}", k.0))
    }

    fn cardinality_at(&self, k: LevelId) -> u64 {
        self.level_counts.get(k.0 as usize).copied().unwrap_or(0)
    }
}

/// The exact location GT of the paper's Figure 1 (address → city → region →
/// country), populated with a small France/Netherlands sample matching the
/// authors' affiliations. Used by the tests and the quickstart example.
pub fn location_tree_fig1() -> GeneralizationTree {
    GeneralizationTree::builder("location", &["address", "city", "region", "country"])
        .path(&[
            "Domaine de Voluceau",
            "Le Chesnay",
            "Ile-de-France",
            "France",
        ])
        .path(&[
            "45 avenue des Etats-Unis",
            "Versailles",
            "Ile-de-France",
            "France",
        ])
        .path(&["4 rue Jussieu", "Paris", "Ile-de-France", "France"])
        .path(&["Rue de la Paix", "Lyon", "Auvergne-Rhone-Alpes", "France"])
        .path(&["Drienerlolaan 5", "Enschede", "Overijssel", "Netherlands"])
        .path(&[
            "Hengelosestraat 99",
            "Enschede2",
            "Overijssel",
            "Netherlands",
        ])
        .path(&[
            "Science Park 123",
            "Amsterdam",
            "Noord-Holland",
            "Netherlands",
        ])
        .build()
        .expect("fig1 tree is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_tree_shape() {
        let t = location_tree_fig1();
        assert_eq!(t.levels(), 4);
        assert_eq!(t.leaf_count(), 7);
        assert_eq!(t.cardinality_at(LevelId(3)), 2); // France, Netherlands
        assert_eq!(t.level_name(LevelId(1)), "city");
    }

    #[test]
    fn generalize_walks_to_requested_level() {
        let t = location_tree_fig1();
        let addr = Value::Str("Domaine de Voluceau".into());
        assert_eq!(
            t.generalize(&addr, LevelId(1)).unwrap(),
            Value::Str("Le Chesnay".into())
        );
        assert_eq!(
            t.generalize(&addr, LevelId(3)).unwrap(),
            Value::Str("France".into())
        );
        // idempotent at own level
        assert_eq!(t.generalize(&addr, LevelId(0)).unwrap(), addr);
    }

    #[test]
    fn generalize_from_intermediate_level() {
        let t = location_tree_fig1();
        let city = Value::Str("Enschede".into());
        assert_eq!(
            t.generalize(&city, LevelId(3)).unwrap(),
            Value::Str("Netherlands".into())
        );
        // refinement is impossible — the irreversibility guarantee
        assert!(t.generalize(&city, LevelId(0)).is_err());
    }

    #[test]
    fn degradation_path_is_fig1_lifetime() {
        let t = location_tree_fig1();
        let path = t.degradation_path("4 rue Jussieu").unwrap();
        let labels: Vec<&str> = path.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec!["4 rue Jussieu", "Paris", "Ile-de-France", "France"]
        );
        assert_eq!(path[0].0, LevelId(0));
        assert_eq!(path[3].0, LevelId(3));
    }

    #[test]
    fn unknown_label_is_not_found() {
        let t = location_tree_fig1();
        assert!(matches!(
            t.generalize(&Value::Str("Atlantis".into()), LevelId(2)),
            Err(Error::NotFound(_))
        ));
        assert!(t.level_of(&Value::Str("Atlantis".into())).is_none());
    }

    #[test]
    fn non_string_value_rejected() {
        let t = location_tree_fig1();
        assert!(t.generalize(&Value::Int(5), LevelId(1)).is_err());
    }

    #[test]
    fn residual_info_decreases_along_path() {
        let t = location_tree_fig1();
        let addr = Value::Str("Drienerlolaan 5".into());
        let mut prev = f64::INFINITY;
        for k in 0..t.levels() {
            let r = t.residual_info(&addr, LevelId(k));
            assert!(r <= prev + 1e-12, "residual info must not increase");
            assert!((0.0..=1.0).contains(&r));
            prev = r;
        }
        assert!((t.residual_info(&addr, LevelId(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_inconsistent_label_rejected() {
        let r = GeneralizationTree::builder("bad", &["leaf", "root"])
            .path(&["X", "R"])
            .path(&["R", "X"]) // same labels at swapped levels
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn top_level_forest_accepted() {
        // Several top-level nodes (countries) are legal: the implicit ⊤
        // root of the domain sits above them.
        let t = GeneralizationTree::builder("geo", &["leaf", "country"])
            .path(&["a", "FR"])
            .path(&["b", "NL"])
            .build()
            .unwrap();
        assert_eq!(t.cardinality_at(LevelId(1)), 2);
        assert_eq!(
            t.generalize(&Value::Str("a".into()), LevelId(1)).unwrap(),
            Value::Str("FR".into())
        );
    }

    #[test]
    fn empty_tree_rejected() {
        assert!(GeneralizationTree::builder("empty", &["a", "b"])
            .build()
            .is_err());
        assert!(GeneralizationTree::builder("shallow", &["only"])
            .path(&["x"])
            .build()
            .is_err());
    }

    #[test]
    fn cardinality_shrinks_toward_root() {
        let t = location_tree_fig1();
        for k in 1..t.levels() {
            assert!(
                t.cardinality_at(LevelId(k)) <= t.cardinality_at(LevelId(k - 1)),
                "cardinality must be non-increasing toward the root"
            );
        }
    }
}
