package vtime

import "testing"

func TestAlarmsFireInTimeThenRegistrationOrder(t *testing.T) {
	a := NewAlarms()
	idLate := a.Set(30, "late")
	idA := a.Set(10, "a")
	idB := a.Set(10, "b") // same instant, registered after a
	idEarly := a.Set(5, "early")

	fired := a.Advance(10)
	if len(fired) != 3 {
		t.Fatalf("Advance(10) fired %d alarms, want 3", len(fired))
	}
	wantOrder := []uint64{idEarly, idA, idB}
	for i, al := range fired {
		if al.ID != wantOrder[i] {
			t.Fatalf("fired[%d].ID = %d, want %d (tags %q)", i, al.ID, wantOrder[i], al.Tag)
		}
	}
	if fired := a.Advance(29); fired != nil {
		t.Fatalf("Advance(29) fired %v, want none", fired)
	}
	fired = a.Advance(100)
	if len(fired) != 1 || fired[0].ID != idLate {
		t.Fatalf("Advance(100) = %v, want the id=%d alarm", fired, idLate)
	}
}

func TestAlarmsClockIsMonotone(t *testing.T) {
	a := NewAlarms()
	a.Advance(50)
	a.Advance(20) // must not rewind
	if now := a.Now(); now != 50 {
		t.Fatalf("Now() = %v, want 50", now)
	}
	// An alarm set at or before the clock fires on the next Advance, even a
	// stale one.
	a.Set(40, "past")
	fired := a.Advance(10)
	if len(fired) != 1 || fired[0].Tag != "past" {
		t.Fatalf("stale Advance fired %v, want the past alarm", fired)
	}
}
