package core

// Exports for the external (package core_test) tests, which also import
// internal/serve and so cannot live inside package core.
var (
	FormPlan    = formPlan
	TestNetwork = testSetup
)
