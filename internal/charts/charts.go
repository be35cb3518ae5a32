// Package charts embeds the five-operator Helm chart corpus used in the
// paper's evaluation (§VI-A): Nginx (networking), MLflow (AI/ML),
// PostgreSQL (database), RabbitMQ (data streaming), and SonarQube
// (security/code quality), originally drawn from Artifact Hub.
//
// The real Artifact Hub charts are third-party artifacts; these are
// re-creations with the same *resource-kind footprint* as the paper's
// Fig. 9 (which kinds each workload deploys), the same Helm constructs
// (helpers, conditionals, loops, enum-annotated values, security
// contexts), and realistic pod specs — so KubeFence's policy generation
// exercises the same code paths. See DESIGN.md §3 for the substitution
// rationale.
//
// Authoring constraints kept throughout the corpus (required for sound
// policy generation, documented in DESIGN.md):
//
//   - values-derived scalars are never passed through transforming
//     functions (b64enc, sha256sum) — Secrets use stringData — so type
//     placeholders survive rendering;
//   - boolean values gate every conditional block, so the exploration
//     phase reaches both branches;
//   - enumerative values carry comment annotations ("# A or B").
package charts

import (
	"fmt"
	"sort"

	"repro/internal/chart"
)

// Names lists the corpus workloads in the paper's Fig. 9 row order.
// The multi-service store scenario (ScenarioNames) is intentionally not
// part of this set: the robustness and learning matrices are pinned to
// the paper's five-chart corpus.
func Names() []string {
	return []string{"nginx", "mlflow", "postgresql", "rabbitmq", "sonarqube"}
}

// ScenarioNames lists the scenario charts that extend the evaluation
// beyond the paper's corpus — today the multi-service store application
// (store-api / order-processor / customer-db), rendered by the
// decoder-equivalence and chart tests.
func ScenarioNames() []string {
	return []string{"store"}
}

// Files returns the raw fileset of a corpus chart.
func Files(name string) (chart.Fileset, bool) {
	switch name {
	case "nginx":
		return nginxChart(), true
	case "mlflow":
		return mlflowChart(), true
	case "postgresql":
		return postgresqlChart(), true
	case "rabbitmq":
		return rabbitmqChart(), true
	case "sonarqube":
		return sonarqubeChart(), true
	case "store":
		return storeChart(), true
	default:
		return nil, false
	}
}

// Load parses a corpus chart by name.
func Load(name string) (*chart.Chart, error) {
	files, ok := Files(name)
	if !ok {
		return nil, fmt.Errorf("charts: unknown workload %q (have %v)", name, Names())
	}
	c, err := chart.Load(files)
	if err != nil {
		return nil, fmt.Errorf("charts: loading %s: %w", name, err)
	}
	return c, nil
}

// MustLoad is Load for tests and examples with a known-good name.
func MustLoad(name string) *chart.Chart {
	c, err := Load(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ExpectedKinds maps each workload to the resource kinds its chart can
// deploy, matching the non-zero cells of the paper's Fig. 9 row.
func ExpectedKinds(name string) []string {
	var kinds []string
	switch name {
	case "nginx":
		kinds = []string{"Deployment", "Service", "NetworkPolicy",
			"ServiceAccount", "HorizontalPodAutoscaler", "PodDisruptionBudget"}
	case "mlflow":
		kinds = []string{"Deployment", "Service", "ConfigMap", "Ingress",
			"ServiceAccount", "Secret"}
	case "postgresql":
		kinds = []string{"StatefulSet", "CronJob", "Service", "ConfigMap",
			"NetworkPolicy", "ServiceAccount", "Secret", "Role", "RoleBinding"}
	case "rabbitmq":
		kinds = []string{"StatefulSet", "Service", "NetworkPolicy", "Ingress",
			"ServiceAccount", "PodDisruptionBudget", "Secret", "Role", "RoleBinding"}
	case "sonarqube":
		kinds = []string{"Deployment", "StatefulSet", "Pod", "Job", "Service",
			"ConfigMap", "NetworkPolicy", "Ingress", "IngressClass",
			"ServiceAccount", "PersistentVolumeClaim",
			"ValidatingWebhookConfiguration", "Secret", "Role", "RoleBinding",
			"ClusterRole", "ClusterRoleBinding"}
	case "store":
		kinds = []string{"Deployment", "StatefulSet", "Service", "ConfigMap",
			"NetworkPolicy", "ServiceAccount", "Secret", "Role", "RoleBinding"}
	}
	sort.Strings(kinds)
	return kinds
}

// commonHelpers is the _helpers.tpl shared across the corpus, mirroring
// the bitnami common-library style.
func commonHelpers(name string) string {
	return `
{{- define "` + name + `.fullname" -}}
{{- printf "%s-%s" .Release.Name .Chart.Name | trunc 63 | trimSuffix "-" -}}
{{- end -}}

{{- define "` + name + `.name" -}}
{{- .Chart.Name -}}
{{- end -}}

{{- define "` + name + `.labels" -}}
app.kubernetes.io/name: {{ include "` + name + `.name" . }}
app.kubernetes.io/instance: {{ .Release.Name }}
app.kubernetes.io/managed-by: {{ .Release.Service }}
helm.sh/chart: {{ printf "%s-%s" .Chart.Name .Chart.Version }}
{{- end -}}

{{- define "` + name + `.matchLabels" -}}
app.kubernetes.io/name: {{ include "` + name + `.name" . }}
app.kubernetes.io/instance: {{ .Release.Name }}
{{- end -}}

{{- define "` + name + `.serviceAccountName" -}}
{{- if .Values.serviceAccount.create -}}
{{- default (include "` + name + `.fullname" .) .Values.serviceAccount.name -}}
{{- else -}}
{{- default "default" .Values.serviceAccount.name -}}
{{- end -}}
{{- end -}}

{{- define "` + name + `.image" -}}
{{- printf "%s/%s:%s" .Values.image.registry .Values.image.repository .Values.image.tag -}}
{{- end -}}
`
}
