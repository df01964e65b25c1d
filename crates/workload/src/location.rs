//! Parametric location domains.
//!
//! [`LocationDomain`] generates a synthetic Generalization Tree with the
//! exact shape of the paper's Fig. 1 — address → city → region → country —
//! at configurable fan-out, plus Zipf-skewed samplers over its leaves.
//! This substitutes for the real cell-phone/RFID location feeds the paper
//! assumes (PAPER.md), which are not public: the degradation mechanism
//! only observes the hierarchy shape and the value skew, both of which are
//! controlled here.

use std::sync::Arc;

use instant_lcp::gtree::GeneralizationTree;
use instant_lcp::hierarchy::Hierarchy;

use crate::rng::Rng;
use crate::zipf::Zipf;

/// Fan-out specification for the synthetic location GT.
#[derive(Debug, Clone, Copy)]
pub struct LocationShape {
    pub countries: usize,
    pub regions_per_country: usize,
    pub cities_per_region: usize,
    pub addresses_per_city: usize,
}

impl Default for LocationShape {
    fn default() -> Self {
        // ~2 × 5 × 10 × 20 = 2000 addresses: enough cardinality collapse
        // (2000 → 100 → 10 → 2) to exercise every index regime.
        LocationShape {
            countries: 2,
            regions_per_country: 5,
            cities_per_region: 10,
            addresses_per_city: 20,
        }
    }
}

impl LocationShape {
    pub fn leaf_count(&self) -> usize {
        self.countries * self.regions_per_country * self.cities_per_region * self.addresses_per_city
    }
}

/// A generated location domain: the GT plus samplers.
pub struct LocationDomain {
    tree: Arc<GeneralizationTree>,
    addresses: Vec<String>,
    zipf: Zipf,
}

impl std::fmt::Debug for LocationDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocationDomain")
            .field("addresses", &self.addresses.len())
            .finish()
    }
}

impl LocationDomain {
    /// Generate the domain. `theta` is the Zipf skew over addresses.
    pub fn generate(shape: LocationShape, theta: f64) -> LocationDomain {
        let mut builder =
            GeneralizationTree::builder("location", &["address", "city", "region", "country"]);
        let mut addresses = Vec::with_capacity(shape.leaf_count());
        for c in 0..shape.countries {
            let country = format!("Country{c:02}");
            for r in 0..shape.regions_per_country {
                let region = format!("{country}/Region{r:02}");
                for ci in 0..shape.cities_per_region {
                    let city = format!("{region}/City{ci:02}");
                    for a in 0..shape.addresses_per_city {
                        let address = format!("{city}/Addr{a:03}");
                        builder = builder.path(&[&address, &city, &region, &country]);
                        addresses.push(address);
                    }
                }
            }
        }
        let tree = builder.build().expect("generated GT is well-formed");
        let zipf = Zipf::new(addresses.len(), theta);
        LocationDomain {
            tree: Arc::new(tree),
            addresses,
            zipf,
        }
    }

    /// The GT as a shared hierarchy handle (for table schemas).
    pub fn hierarchy(&self) -> Arc<dyn Hierarchy> {
        self.tree.clone()
    }

    pub fn tree(&self) -> &Arc<GeneralizationTree> {
        &self.tree
    }

    /// All leaf addresses.
    pub fn addresses(&self) -> &[String] {
        &self.addresses
    }

    /// Sample an address (Zipf-skewed).
    pub fn sample_address(&self, rng: &mut Rng) -> &str {
        &self.addresses[self.zipf.sample(rng)]
    }

    /// A specific level-`k` label reachable from some leaf — handy for
    /// building predicates at degraded levels.
    pub fn label_at(&self, leaf: &str, level: u8) -> String {
        let path = self.tree.degradation_path(leaf).expect("leaf exists");
        path.iter()
            .find(|(l, _)| l.0 == level)
            .map(|(_, s)| s.clone())
            .expect("level within depth")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::{LevelId, Value};

    #[test]
    fn default_shape_counts() {
        let d = LocationDomain::generate(LocationShape::default(), 0.8);
        assert_eq!(d.addresses().len(), 2000);
        assert_eq!(d.tree().leaf_count(), 2000);
        assert_eq!(d.tree().cardinality_at(LevelId(3)), 2);
        assert_eq!(d.tree().cardinality_at(LevelId(1)), 100);
    }

    #[test]
    fn generalization_works_on_generated_tree() {
        let d = LocationDomain::generate(LocationShape::default(), 0.8);
        let leaf = d.addresses()[0].clone();
        let country = d
            .tree()
            .generalize(&Value::Str(leaf.clone()), LevelId(3))
            .unwrap();
        assert_eq!(country, Value::Str("Country00".into()));
        assert_eq!(d.label_at(&leaf, 2), "Country00/Region00");
    }

    #[test]
    fn sampling_is_skewed_and_in_domain() {
        let d = LocationDomain::generate(LocationShape::default(), 1.0);
        let mut rng = Rng::new(17);
        let mut first = 0;
        for _ in 0..2000 {
            let a = d.sample_address(&mut rng);
            assert!(d.addresses().iter().any(|x| x == a));
            if a == d.addresses()[0] {
                first += 1;
            }
        }
        assert!(first > 10, "rank-0 address should be hot, saw {first}");
    }

    #[test]
    fn tiny_shape() {
        let d = LocationDomain::generate(
            LocationShape {
                countries: 1,
                regions_per_country: 1,
                cities_per_region: 1,
                addresses_per_city: 3,
            },
            0.0,
        );
        assert_eq!(d.addresses().len(), 3);
        assert_eq!(d.tree().cardinality_at(LevelId(3)), 1);
    }
}
