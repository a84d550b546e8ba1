package graph

// ViewAgrees exposes the view-vs-accessors check to the external tests,
// which drive it over graphtest's shaped graphs.
var ViewAgrees = viewAgrees
