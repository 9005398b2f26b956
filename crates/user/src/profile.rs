//! User profiles («User») and the concurrent profile store.

use crate::characteristic::{Characteristic, Role};
use crate::error::UserError;
use crate::selection::SpatialSelectionInterest;
use crate::stereotype::SusStereotype;
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The profile of one decision maker — the «User» class of the SUS profile
/// plus its associations (role, characteristics, spatial-selection
/// interests).
///
/// The profile is "updated during the lifetime of the system": rules read
/// it in their conditions and update it through the `SetContent` action.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserProfile {
    /// Stable identifier of the user (login).
    pub id: String,
    /// Display name of the decision maker.
    pub name: String,
    /// The user's organisational role (`dm2role` association).
    pub role: Option<Role>,
    /// Domain-independent characteristics, keyed by name.
    pub characteristics: BTreeMap<String, Characteristic>,
    /// Tracked spatial-selection interests, keyed by lower-cased name
    /// (`dm2airportcity` navigates to the interest named `AirportCity`).
    pub interests: BTreeMap<String, SpatialSelectionInterest>,
    /// Free-form extra properties used by custom rules.
    pub custom: BTreeMap<String, Value>,
}

impl UserProfile {
    /// Creates an empty profile.
    pub fn new(id: impl Into<String>, name: impl Into<String>) -> Self {
        UserProfile {
            id: id.into(),
            name: name.into(),
            ..UserProfile::default()
        }
    }

    /// Sets the user's role, returning `self` for chaining.
    pub fn with_role(mut self, role: Role) -> Self {
        self.role = Some(role);
        self
    }

    /// Adds a characteristic, returning `self` for chaining.
    pub fn with_characteristic(mut self, c: Characteristic) -> Self {
        self.characteristics.insert(c.name.to_lowercase(), c);
        self
    }

    /// Declares a tracked spatial-selection interest, returning `self`.
    pub fn with_interest(mut self, interest: SpatialSelectionInterest) -> Self {
        self.interests
            .insert(interest.name.to_lowercase(), interest);
        self
    }

    /// Looks up a characteristic by case-insensitive name.
    pub fn characteristic(&self, name: &str) -> Option<&Characteristic> {
        self.characteristics.get(&name.to_lowercase())
    }

    /// Looks up an interest by case-insensitive name.
    pub fn interest(&self, name: &str) -> Option<&SpatialSelectionInterest> {
        self.interests.get(&name.to_lowercase())
    }

    /// Mutable lookup of an interest; creates it (degree 0) when missing so
    /// that interest-tracking rules never fail on first use.
    pub fn interest_mut(&mut self, name: &str) -> &mut SpatialSelectionInterest {
        self.interests
            .entry(name.to_lowercase())
            .or_insert_with(|| SpatialSelectionInterest::new(name))
    }

    /// The role name, when a role is assigned.
    pub fn role_name(&self) -> Option<&str> {
        self.role.as_ref().map(|r| r.name.as_str())
    }

    /// The SUS stereotype of this element.
    pub fn stereotype(&self) -> SusStereotype {
        SusStereotype::User
    }
}

/// A thread-safe store of user profiles, keyed by user id.
///
/// The web facade serves many concurrent sessions; `parking_lot::RwLock`
/// keeps reads cheap while `SetContent` updates take the write lock.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    inner: Arc<RwLock<BTreeMap<String, UserProfile>>>,
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ProfileStore::default()
    }

    /// Inserts or replaces a profile.
    pub fn upsert(&self, profile: UserProfile) {
        self.inner.write().insert(profile.id.clone(), profile);
    }

    /// Returns a clone of the profile for the given user id.
    pub fn get(&self, user_id: &str) -> Result<UserProfile, UserError> {
        self.inner
            .read()
            .get(user_id)
            .cloned()
            .ok_or_else(|| UserError::NotFound {
                kind: "user",
                id: user_id.to_string(),
            })
    }

    /// Applies a mutation to the stored profile under the write lock.
    pub fn update<R>(
        &self,
        user_id: &str,
        f: impl FnOnce(&mut UserProfile) -> R,
    ) -> Result<R, UserError> {
        let mut guard = self.inner.write();
        let profile = guard.get_mut(user_id).ok_or_else(|| UserError::NotFound {
            kind: "user",
            id: user_id.to_string(),
        })?;
        Ok(f(profile))
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Returns `true` when no profiles are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regional_manager() -> UserProfile {
        UserProfile::new("u-glorio", "Octavio")
            .with_role(Role::new("RegionalSalesManager"))
            .with_characteristic(Characteristic::new("language", "es"))
            .with_interest(SpatialSelectionInterest::new("AirportCity"))
    }

    #[test]
    fn profile_accessors() {
        let p = regional_manager();
        assert_eq!(p.role_name(), Some("RegionalSalesManager"));
        assert!(p.characteristic("Language").is_some());
        assert!(p.characteristic("age").is_none());
        assert!(p.interest("airportcity").is_some());
        assert!(p.interest("TrainCity").is_none());
        assert_eq!(p.stereotype(), SusStereotype::User);
    }

    #[test]
    fn interest_mut_creates_on_demand() {
        let mut p = regional_manager();
        assert!(p.interest("HospitalCity").is_none());
        p.interest_mut("HospitalCity").increment();
        assert_eq!(p.interest("hospitalcity").unwrap().degree, 1.0);
    }

    #[test]
    fn store_round_trip() {
        let store = ProfileStore::new();
        assert!(store.is_empty());
        store.upsert(regional_manager());
        assert_eq!(store.len(), 1);
        let p = store.get("u-glorio").unwrap();
        assert_eq!(p.name, "Octavio");
        assert!(store.get("nobody").is_err());
    }

    #[test]
    fn store_update_mutates_in_place() {
        let store = ProfileStore::new();
        store.upsert(regional_manager());
        let degree = store
            .update("u-glorio", |p| {
                p.interest_mut("AirportCity").increment();
                p.interest("AirportCity").unwrap().degree
            })
            .unwrap();
        assert_eq!(degree, 1.0);
        assert_eq!(
            store
                .get("u-glorio")
                .unwrap()
                .interest("AirportCity")
                .unwrap()
                .degree,
            1.0
        );
        assert!(store.update("ghost", |_| ()).is_err());
    }

    #[test]
    fn store_is_cloneable_and_shared() {
        let store = ProfileStore::new();
        store.upsert(regional_manager());
        let clone = store.clone();
        clone
            .update("u-glorio", |p| {
                p.custom.insert("theme".into(), Value::from("dark"))
            })
            .unwrap();
        // The original sees the update because the clone shares the inner map.
        assert_eq!(
            store.get("u-glorio").unwrap().custom.get("theme"),
            Some(&Value::Text("dark".into()))
        );
    }
}
