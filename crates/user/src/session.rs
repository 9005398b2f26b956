//! Analysis sessions («Session») and the events they produce.

use crate::location::LocationContext;
use crate::stereotype::SusStereotype;

/// Identifier of an analysis session.
pub type SessionId = u64;

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session is running (between SessionStart and SessionEnd).
    Active,
    /// The session has ended.
    Ended,
}

/// Events generated during a session, mirroring the PRML tracking events of
/// §4.2.1 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The user logged in and the analysis session started.
    SessionStart,
    /// The analysis session ended.
    SessionEnd,
    /// The user performed a spatial selection: the named GeoMD element was
    /// selected under the recorded spatial expression.
    SpatialSelection {
        /// The GeoMD element that was selected (as a path string).
        element: String,
        /// The spatial expression that was satisfied (as rule text).
        expression: String,
    },
}

/// One analysis session of a user against the (personalized) SDW.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Session identifier.
    pub id: SessionId,
    /// Identifier of the user running the session.
    pub user_id: String,
    /// Where the session is performed from (the `s2location` association).
    pub location: Option<LocationContext>,
    /// Current lifecycle status.
    pub status: SessionStatus,
    /// Ordered log of the events observed so far.
    pub events: Vec<SessionEvent>,
}

impl Session {
    /// Starts a new session for a user; records the SessionStart event.
    pub fn start(id: SessionId, user_id: impl Into<String>) -> Self {
        Session {
            id,
            user_id: user_id.into(),
            location: None,
            status: SessionStatus::Active,
            events: vec![SessionEvent::SessionStart],
        }
    }

    /// Starts a session with a known location context.
    pub fn start_at(id: SessionId, user_id: impl Into<String>, location: LocationContext) -> Self {
        let mut s = Session::start(id, user_id);
        s.location = Some(location);
        s
    }

    /// Records a spatial-selection event.
    pub fn record_spatial_selection(
        &mut self,
        element: impl Into<String>,
        expression: impl Into<String>,
    ) {
        self.events.push(SessionEvent::SpatialSelection {
            element: element.into(),
            expression: expression.into(),
        });
    }

    /// Ends the session, recording the SessionEnd event. Ending twice is a
    /// no-op.
    pub fn end(&mut self) {
        if self.status == SessionStatus::Active {
            self.status = SessionStatus::Ended;
            self.events.push(SessionEvent::SessionEnd);
        }
    }

    /// Returns `true` while the session is active.
    pub fn is_active(&self) -> bool {
        self.status == SessionStatus::Active
    }

    /// The SUS stereotype of this element.
    pub fn stereotype(&self) -> SusStereotype {
        SusStereotype::Session
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_lifecycle() {
        let mut s = Session::start(1, "u1");
        assert!(s.is_active());
        assert_eq!(s.events, vec![SessionEvent::SessionStart]);
        assert_eq!(s.stereotype(), SusStereotype::Session);
        s.end();
        assert!(!s.is_active());
        assert_eq!(s.events.last(), Some(&SessionEvent::SessionEnd));
        // Ending again does not duplicate the event.
        s.end();
        assert_eq!(s.events.len(), 2);
    }

    #[test]
    fn session_with_location() {
        let s = Session::start_at(2, "u1", LocationContext::at_point("office", 1.0, 2.0));
        assert_eq!(s.location.as_ref().unwrap().name, "office");
        assert_eq!(s.user_id, "u1");
    }

    #[test]
    fn spatial_selection_events_are_counted() {
        let selections = |s: &Session| {
            s.events
                .iter()
                .filter(|e| matches!(e, SessionEvent::SpatialSelection { .. }))
                .count()
        };
        let mut s = Session::start(3, "u2");
        assert_eq!(selections(&s), 0);
        s.record_spatial_selection(
            "GeoMD.Store.City",
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km",
        );
        s.record_spatial_selection("GeoMD.Store", "Inside(...)");
        assert_eq!(selections(&s), 2);
        assert_eq!(s.events.len(), 3); // start + 2 selections
    }
}
