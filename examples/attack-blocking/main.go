// Attack-blocking: the full Table III scenario end to end — a simulated
// cluster, an audit2rbac-hardened RBAC baseline, the KubeFence proxy, and
// the 15-entry malicious-specification catalog (paper §VI-D).
//
//	go run ./examples/attack-blocking
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	kubefence "repro"
	"repro/internal/apiserver"
	"repro/internal/attacks"
	"repro/internal/audit"
	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/operator"
	"repro/internal/rbac"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const workload = "postgresql"
	operatorUser := "operator:" + workload

	// --- A cluster with audit logging (the paper's capture phase). ---
	auditLog := &audit.Log{}
	api, err := apiserver.New(apiserver.Config{
		Store: store.New(), Audit: auditLog,
		FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		return err
	}
	apiTS := httptest.NewServer(api)
	defer apiTS.Close()

	// --- Deploy the operator attack-free to record its interactions. ---
	op := &operator.Operator{
		Workload: workload,
		Chart:    charts.MustLoad(workload),
		Client:   client.New(apiTS.URL, client.WithUser(operatorUser)),
		Release:  chart.ReleaseOptions{Name: "prod", Namespace: "default"},
	}
	res, err := op.Deploy()
	if err != nil {
		return err
	}
	fmt.Printf("deployed %d %s objects; %d audit events captured\n",
		res.Objects, workload, auditLog.Len())

	// --- Infer and enforce the minimal RBAC policy (baseline arm). ---
	inferred := audit.InferPolicy(auditLog.Events(), operatorUser)
	authz := rbac.New()
	inferred.Apply(authz)
	api.SetAuthorizer(authz)
	api.SetEnforceAuthz(true)
	fmt.Printf("audit2rbac: %d namespaced roles, %d cluster roles\n\n",
		len(inferred.Roles), len(inferred.ClusterRoles))

	// --- Generate the KubeFence policy and start the proxy. ---
	policy, err := kubefence.GeneratePolicy(charts.MustLoad(workload), kubefence.Options{})
	if err != nil {
		return err
	}
	// A one-entry registry: the zero Selector scopes the policy to every
	// request.
	reg := kubefence.NewRegistry(kubefence.RegistryConfig{})
	if err := policy.Register(reg, kubefence.Selector{}); err != nil {
		return err
	}
	proxy, err := kubefence.NewProxy(kubefence.ProxyConfig{
		Upstream:  apiTS.URL,
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		return err
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	// --- Fire the catalog at both arms. ---
	legit, err := op.RenderedObjects()
	if err != nil {
		return err
	}
	direct := client.New(apiTS.URL, client.WithUser(operatorUser))
	fenced := client.New(proxyTS.URL, client.WithUser(operatorUser))

	fmt.Printf("%-4s %-48s %-10s %-10s\n", "ID", "attack", "RBAC", "KubeFence")
	rbacBlocked, kfBlocked := 0, 0
	for _, a := range attacks.Catalog() {
		target, ok := a.SelectTarget(legit)
		if !ok {
			return fmt.Errorf("no target for %s", a.ID)
		}
		craft := func() (object.Object, error) {
			evil, err := a.Craft(target)
			if err != nil {
				return nil, err
			}
			err = object.Set(evil, "metadata.name", target.Name()+"-"+a.ID)
			return evil, err
		}

		evil, err := craft()
		if err != nil {
			return err
		}
		_, errDirect := direct.Create(evil)
		rbacVerdict := verdict(errDirect, &rbacBlocked)

		evil2, err := craft()
		if err != nil {
			return err
		}
		_, errFenced := fenced.Create(evil2)
		kfVerdict := verdict(errFenced, &kfBlocked)

		fmt.Printf("%-4s %-48s %-10s %-10s\n", a.ID, a.Name, rbacVerdict, kfVerdict)
	}
	fmt.Printf("\nRBAC blocked %d/15, KubeFence blocked %d/15 (paper: 0/15 vs 15/15)\n",
		rbacBlocked, kfBlocked)

	for _, v := range proxy.Violations() {
		_ = v // violation records available for forensics (paper §V-B)
	}
	fmt.Printf("violation records captured for auditing: %d\n", len(proxy.Violations()))
	return nil
}

func verdict(err error, counter *int) string {
	if client.IsForbidden(err) {
		*counter++
		return "BLOCKED"
	}
	if err != nil {
		return "error"
	}
	return "admitted"
}
