package serve

// Durability returns the current durability state.
func (s *Server) Durability() DurabilityState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durState
}
