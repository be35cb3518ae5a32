// Operator-lifecycle: Day-1 and Day-2 operations through the KubeFence
// proxy with complete mediation over mutual TLS — the paper's full
// deployment architecture (§V-B): the API server only accepts connections
// from the proxy's client certificate; clients trust the proxy CA; the
// operator installs, reconciles drift, and is blocked when compromised.
//
//	go run ./examples/operator-lifecycle
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"crypto/tls"

	kubefence "repro"
	"repro/internal/apiserver"
	"repro/internal/certs"
	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/operator"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const workload = "rabbitmq"

	// --- PKI: cluster CA (API server + proxy client cert) and proxy CA
	//     (what clients trust). ---
	clusterCA, err := certs.NewCA("cluster-ca")
	if err != nil {
		return err
	}
	proxyCA, err := certs.NewCA("kubefence-proxy-ca")
	if err != nil {
		return err
	}
	apiCert, err := clusterCA.IssueServer("kube-apiserver", "127.0.0.1")
	if err != nil {
		return err
	}
	proxyClientCert, err := clusterCA.IssueClient("kubefence-proxy")
	if err != nil {
		return err
	}
	proxyServerCert, err := proxyCA.IssueServer("kubefence", "127.0.0.1")
	if err != nil {
		return err
	}

	// --- API server: mTLS only; sole trusted client is the proxy. ---
	api, err := apiserver.New(apiserver.Config{
		Store:           store.New(),
		FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		return err
	}
	apiTS := httptest.NewUnstartedServer(api)
	apiTS.TLS = certs.ServerTLSConfig(apiCert, clusterCA)
	// The complete-mediation probe below triggers an expected handshake
	// failure; keep the example output clean.
	apiTS.Config.ErrorLog = log.New(io.Discard, "", 0)
	apiTS.StartTLS()
	defer apiTS.Close()

	// --- KubeFence proxy with the workload policy. ---
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
		Upstream: apiTS.URL,
		Registry: reg,
		Transport: &http.Transport{
			TLSClientConfig: certs.ClientTLSConfig(clusterCA, proxyClientCert),
		},
	})
	if err != nil {
		return err
	}
	proxyTS := httptest.NewUnstartedServer(proxy)
	proxyTS.TLS = &tls.Config{
		Certificates: []tls.Certificate{proxyServerCert.TLSCertificate()},
		MinVersion:   tls.VersionTLS12,
	}
	proxyTS.StartTLS()
	defer proxyTS.Close()

	// --- Complete mediation: direct API access fails at the TLS layer. --
	direct := client.New(apiTS.URL, client.WithHTTPClient(&http.Client{
		Transport: &http.Transport{TLSClientConfig: certs.ClientTLSConfig(clusterCA, nil)},
	}))
	if err := direct.Healthz(); err != nil {
		fmt.Println("direct API access without client cert: REFUSED (complete mediation)")
	} else {
		return fmt.Errorf("direct access unexpectedly succeeded")
	}

	// --- Day-1: install through the proxy. ---
	cl := client.New(proxyTS.URL,
		client.WithHTTPClient(&http.Client{
			Transport: &http.Transport{TLSClientConfig: certs.ClientTLSConfig(proxyCA, nil)},
		}),
		client.WithUser("operator:"+workload))
	op := &operator.Operator{
		Workload: workload,
		Chart:    charts.MustLoad(workload),
		Client:   cl,
		Release:  chart.ReleaseOptions{Name: "prod", Namespace: "messaging"},
	}
	res, err := op.Deploy()
	if err != nil {
		return err
	}
	fmt.Printf("day-1 install: %d objects in %v (through mTLS proxy)\n",
		res.Objects, res.Duration)

	// --- Day-2: detect and repair drift. ---
	live, err := cl.Get("StatefulSet", "messaging", "prod-rabbitmq")
	if err != nil {
		return err
	}
	if err := object.Set(live, "spec.replicas", float64(0)); err != nil {
		return err
	}
	if _, err := cl.Update(live); err != nil {
		return err
	}
	rec, err := op.ReconcileOnce()
	if err != nil {
		return err
	}
	fmt.Printf("day-2 reconcile: checked %d, repaired %d drifted object(s)\n",
		rec.Checked, rec.Drifted)

	// --- A compromised operator pushing a privileged pod is stopped. ---
	sts, err := cl.Get("StatefulSet", "messaging", "prod-rabbitmq")
	if err != nil {
		return err
	}
	evil := sts.DeepCopy()
	cs, _ := object.GetSlice(evil, "spec.template.spec.containers")
	cs[0].(map[string]any)["securityContext"].(map[string]any)["privileged"] = true
	_, err = cl.Update(evil)
	if client.IsForbidden(err) {
		fmt.Println("compromised update (privileged: true): BLOCKED by KubeFence")
	} else {
		return fmt.Errorf("privileged update not blocked: %v", err)
	}
	fmt.Printf("proxy metrics: %+v\n", proxy.Metrics())
	return nil
}
