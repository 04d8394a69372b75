package frame

// What the external frame_test package (fig5_test.go, which imports
// internal/exp and so cannot live in package frame) reads of the scalar
// oracle and the race build tag.
type ScalarCampaign = scalarCampaign

var NewScalar = newScalar

const RaceEnabled = raceEnabled
