// Package docs holds repository-documentation checks: the link checker
// in links_test.go walks every markdown file and verifies that
// intra-repo links resolve, so renames and moved files break CI instead
// of readers. It is test-only — its checkers are in contract_test.go —
// and network-free (external URLs are not fetched, only well-formedness
// of local targets is checked).
package docs
